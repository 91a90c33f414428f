"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is pinned in the assertions below.
"""

import json
import math
import time

import pytest
from click.testing import CliRunner

from ppcf.cli import main as cli_main
from ppcf.denotation import interpret, zero_value
from ppcf.harness import AdequacyConfig, adequacy_check, cdf_grid
from ppcf.intervals import FULL_LINE, IntervalSet, parse_interval_set
from ppcf.parser import parse, parse_term
from ppcf.quadrature import integrate_adaptive
from ppcf.reduction import Exhausted, NormalForm, Split, Value, decompose, plug, run, step
from ppcf.rng import RngStream
from ppcf.stability import check_pre_stable, delta_signed, identity_fn, iterated_delta, poly_fn, wpor
from ppcf.terms import REAL, SAMPLE, Numeral
from ppcf.typecheck import typecheck

import random


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _elapsed(t0: float) -> float:
    return time.monotonic() - t0


# -- 1: Dirac arithmetic -------------------------------------------------------


def test_criterion_1_dirac_arithmetic():
    t0 = time.monotonic()
    res = CliRunner().invoke(cli_main, ["denote", "3 + 2"])
    data = {d["interval"]: d["mass"] for d in json.loads(res.output)}
    took = _elapsed(t0)
    ok = (
        res.exit_code == 0
        and data["{5}"] == 1.0
        and data["(-inf,5) + (5,inf)"] == 0.0
        and took < 1.0
    )
    _verdict(1, ok, f"denote '3 + 2' gives exact delta_5 in {took:.2f}s")


# -- 2: CBN vs let discrimination ------------------------------------------------


def test_criterion_2_cbn_vs_let():
    t0 = time.monotonic()
    cbn = interpret(parse_term("(fun x : real -> x = x) sample"))
    let_m = interpret(parse_term("let x = sample in x = x"))
    exact = (
        cbn.mass(IntervalSet.point(0.0)) == 1.0
        and let_m.mass(IntervalSet.point(1.0)) == 1.0
    )
    let_term = parse_term("let x = sample in x = x")
    all_one = all(
        isinstance(o, Value) and o.value == 1.0
        for o in (run(let_term, 10, RngStream.for_run(0, i)) for i in range(10_000))
    )
    took = _elapsed(t0)
    ok = exact and all_one and took < 5.0
    _verdict(2, ok, f"delta_0 vs delta_1 exact on atoms, 10^4 runs all 1, {took:.1f}s")


# -- 3: Bernoulli -----------------------------------------------------------------


def test_criterion_3_bernoulli():
    t0 = time.monotonic()
    prog = parse("#bernoulli 0.3")
    cfg = AdequacyConfig(
        intervals=(IntervalSet.point(0.0), IntervalSet.point(1.0)),
        runs=100_000,
        confidence=0.01,
        seed=2024,
    )
    rep = adequacy_check(prog, cfg)
    dens = [q.denotational for q in rep.queries]
    dkw = rep.queries[0].dkw
    took = _elapsed(t0)
    ok = (
        dens == [0.7, 0.3]
        and abs(dkw - 0.00515) < 3e-4
        and rep.overall_pass
        and took < 30.0
    )
    _verdict(3, ok, f"masses exactly (0.7, 0.3), adequacy at DKW={dkw:.4f}, {took:.1f}s")


# -- 4: exponential and Box-Muller normal ----------------------------------------


def test_criterion_4_exponential_and_normal():
    t0 = time.monotonic()

    exp_grid = cdf_grid(0.15, 3.0, 20)
    exp_prog = parse("#exponential")
    exp_rep = adequacy_check(
        exp_prog, AdequacyConfig(intervals=exp_grid, runs=100_000, seed=7)
    )
    exp_dev = max(
        abs(q.denotational - (1.0 - math.exp(-q.interval.pieces[0].hi)))
        for q in exp_rep.queries
    )

    def phi(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    norm_grid = cdf_grid(-2.5, 2.5, 20)
    norm_prog = parse("#normal")
    norm_rep = adequacy_check(
        norm_prog, AdequacyConfig(intervals=norm_grid, runs=100_000, seed=8)
    )
    norm_dev = max(
        abs(q.denotational - phi(q.interval.pieces[0].hi)) for q in norm_rep.queries
    )

    took = _elapsed(t0)
    ok = (
        exp_dev <= 1e-6
        and norm_dev <= 1e-6
        and exp_rep.overall_pass
        and norm_rep.overall_pass
        and took < 120.0
    )
    _verdict(
        4,
        ok,
        f"CDF grids match analytic (exp dev {exp_dev:.1e}, normal dev {norm_dev:.1e}), "
        f"adequacy passes, {took:.0f}s",
    )


# -- 5: conditioning ----------------------------------------------------------------


def test_criterion_5_conditioning():
    t0 = time.monotonic()
    v = interpret(parse_term("#observe([0,0.5]) sample"))
    cond = v.mass(IntervalSet.closed(0.0, 0.25))

    empty = interpret(parse_term("#observe([2,3]) sample"))
    zero_total = empty.total_mass()
    outcomes = [
        run(parse_term("#observe([2,3]) sample"), 400, RngStream.for_run(3, i))
        for i in range(300)
    ]
    exhausted = sum(1 for o in outcomes if isinstance(o, Exhausted)) / len(outcomes)
    took = _elapsed(t0)
    ok = abs(cond - 0.5) <= 1e-6 and zero_total == 0.0 and exhausted >= 0.99
    _verdict(
        5,
        ok,
        f"observe [0,0.5] on [0,0.25] = {cond:.7f} (+-1e-6), empty-U denotation 0, "
        f"{exhausted:.0%} runs exhausted, {took:.1f}s",
    )


# -- 6: Monte-Carlo expectation ------------------------------------------------------


def _irwin_hall_cdf_of_sum_at_one() -> float:
    """Brute-force convolution oracle for P(u1+u2+u3 <= 1), midpoint rule."""
    n = 1500

    def f1(t: float) -> float:
        return min(max(t, 0.0), 1.0)

    def f2(t: float) -> float:
        return sum(f1(t - (j + 0.5) / n) for j in range(n)) / n

    return sum(f2(1.0 - (i + 0.5) / n) for i in range(n)) / n


def test_criterion_6_expectation():
    t0 = time.monotonic()
    v = interpret(parse_term("#expectation(3) (fun x : real -> x) sample"))
    half = v.mass(IntervalSet.closed(0.0, 0.5))
    third = v.mass(IntervalSet.closed(0.0, 1.0 / 3.0))
    oracle = _irwin_hall_cdf_of_sum_at_one()
    took = _elapsed(t0)
    ok = abs(half - 0.5) <= 1e-4 and abs(third - oracle) <= 1e-4
    _verdict(
        6,
        ok,
        f"law of (u1+u2+u3)/3: mass[0,.5]={half:.6f}, mass[0,1/3]={third:.6f} "
        f"vs convolution oracle {oracle:.6f}, {took:.1f}s",
    )


# -- 7: soundness invariant suite ------------------------------------------------------


_PROBES = (
    IntervalSet.point(0.0),
    IntervalSet.point(1.0),
    IntervalSet.closed(0.0, 0.5),
    parse_interval_set("(0.5,2]"),
    parse_interval_set("(-inf,0.25]"),
    FULL_LINE,
)


def _soundness_corpus() -> list:
    terms = []
    for c in ("0", "0.5", "3"):
        for op in ("+", "*", "<=", "="):
            terms.append(f"(fun x : real -> x {op} x) {c}")
            terms.append(f"let x = {c} in x {op} x")
    for c in ("0", "2"):
        terms.append(f"ifz {c} then 1 else sample")
        terms.append(f"ifz {c} then sample + 1 else 0.25")
    terms += [
        "(1 + 2) + 3",
        "(2 * 3) + (4 * 5)",
        "(0.5 <= 0.25) + 1",
        "neg_log(0.5) + 0",
        "chi[[0,0.5]](0.25) + chi[[0,0.5]](0.75)",
        "(fun f : (real -> real) -> f 1) (fun x : real -> x + 1)",
        "(fun f : (real -> real) -> f (f 1)) (fun x : real -> x * 2)",
        "(fun x : real -> let y = x in y) 3",
        "(fun x : real -> ifz x then sample else 1) 0",
        "#bernoulli 0.3",
        "#bernoulli 0.75",
        "#expectation(2) (fun x : real -> x) sample",
        "(fun x : real -> x + sample) 1",
        "fix (fun y : real -> y)",
        "(fun x : real -> x = x) sample",
        "let x = 0.25 in chi[[0,0.5]](x)",
        "(fun x : real -> x / 0) 7",
        "(fun g : (real -> real) -> g 0.5) (fun x : real -> chi[{0.5}](x))",
        "(fun x : real -> x - 1) 0.25",
        "let x = 1.5 in ifz x then sample else x * x",
        "(fun x : real -> #bernoulli x) 0.4",
        "let x = 0.125 in let y = 0.25 in x + y",
        "sqrt(2) * sqrt(2)",
        "(fun x : real -> cos(x)) 0",
    ]
    return [parse_term(src) for src in terms]


def test_criterion_7_soundness_suite():
    t0 = time.monotonic()
    corpus = _soundness_corpus()
    assert len(corpus) >= 50
    worst = 0.0
    for t in corpus:
        typecheck({}, t)
        d = decompose(t)
        assert isinstance(d, Split) and d.redex is not SAMPLE
        stepped = step(t, RngStream(0))
        before = interpret(t)
        after = interpret(stepped)
        for u in _PROBES:
            worst = max(worst, abs(before.mass(u) - after.mass(u)))
    ok_steps = worst <= 2e-6

    sample_contexts = [
        "sample + 0.5",
        "sample * 2",
        "ifz chi[[0,0.5]](sample) then 1 else 0",
        "let x = sample in x + x",
        "neg_log(sample)",
    ]
    worst_int = 0.0
    u = parse_interval_set("[0.25,1.2]")
    for src in sample_contexts:
        t = parse_term(src)
        d = decompose(t)
        assert isinstance(d, Split) and d.redex is SAMPLE
        lhs = interpret(t).mass(u)
        rhs = integrate_adaptive(
            lambda r: interpret(plug(d.context, Numeral(r))).mass(u), 0.0, 1.0
        )
        worst_int = max(worst_int, abs(lhs - rhs))
    ok_integral = worst_int <= 1e-6
    took = _elapsed(t0)
    _verdict(
        7,
        ok_steps and ok_integral,
        f"{len(corpus)} deterministic steps preserve masses (worst {worst:.1e} <= 2e-6); "
        f"sample-step integral identity (worst {worst_int:.1e}), {took:.0f}s",
    )


# -- 8: stability suite -------------------------------------------------------------


def test_criterion_8_stability():
    t0 = time.monotonic()
    w = wpor()
    rep = check_pre_stable(w, n=1, grid=8)
    witness = [
        v
        for v in rep.violations
        if v.x == (0.0, 0.0)
        and v.increments == ((0.5, 0.5), (0.5, 0.5))
        and v.delta_minus == 1.5
        and v.delta_plus == 1.0
    ]
    accepts = all(
        check_pre_stable(f, n=n, grid=8).passed
        for f in (identity_fn(), poly_fn((0.0, 0.0, 0.5, 0.3)))
        for n in range(5)
    )
    rng = random.Random(99)
    fns = (w, poly_fn((0.1, 0.4, 0.3, 0.2)), identity_fn())
    worst = 0.0
    for _ in range(10_000):
        f = fns[rng.randrange(len(fns))]
        n = rng.randint(0, 3)
        x = tuple(rng.uniform(0.0, 0.3) for _ in range(f.k))
        us = [tuple(rng.uniform(0.0, 0.15) for _ in range(f.k)) for _ in range(n)]
        gap = abs(
            iterated_delta(f, x, us)
            - (delta_signed(f, x, us, "+") - delta_signed(f, x, us, "-"))
        )
        worst = max(worst, gap)
    took = _elapsed(t0)
    ok = bool(witness) and not rep.passed and accepts and worst <= 1e-10 and took < 60.0
    _verdict(
        8,
        ok,
        f"wpor rejected at n=1 with witness (1.5 > 1.0); identity/poly pass to n=4; "
        f"code paths agree to {worst:.1e} on 10^4 queries, {took:.0f}s",
    )


# -- 9: reproducibility ---------------------------------------------------------------


def test_criterion_9_reproducibility():
    args = [
        "check",
        "#observe([0,0.5]) sample",
        "--intervals",
        "[0,0.25]; (0.25,0.5]",
        "--runs",
        "2000",
        "--seed",
        "31337",
    ]
    first = CliRunner().invoke(cli_main, args)
    second = CliRunner().invoke(cli_main, args)
    ok = (
        first.output == second.output
        and first.output.encode() == second.output.encode()
        and json.loads(first.output)["overall_pass"] is True
    )
    _verdict(9, ok, "ppcf check twice with equal seeds is byte-identical JSON")
