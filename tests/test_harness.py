import json
import math

import pytest

import ppcf.denotation
import ppcf.harness
from ppcf.harness import AdequacyConfig, adequacy_check, cdf_grid, denotational_masses
from ppcf.intervals import FULL_LINE, IntervalSet, parse_interval_set
from ppcf.parser import parse
from ppcf.primitives import DEFAULT_TABLE, Primitive
from ppcf.quadrature import QuadratureFailure


def _cfg(intervals, runs=2_000, **kw):
    return AdequacyConfig(intervals=tuple(intervals), runs=runs, **kw)


def test_bernoulli_adequacy_passes():
    prog = parse("#bernoulli 0.3")
    rep = adequacy_check(prog, _cfg([IntervalSet.point(0.0), IntervalSet.point(1.0)], seed=5))
    assert rep.overall_pass
    dens = [q.denotational for q in rep.queries]
    assert dens == [0.7, 0.3]
    assert rep.exhausted_fraction == 0.0


def test_negative_control_detects_swapped_primitive():
    # operational side computes a-b for +; denotational side untouched
    broken = DEFAULT_TABLE.with_override(
        "add", Primitive("add", 2, lambda a, b: a - b)
    )
    prog = parse("3 + 2")
    rep = adequacy_check(
        prog, _cfg([IntervalSet.point(5.0)], runs=200, seed=0), op_table=broken
    )
    assert not rep.overall_pass
    assert rep.queries[0].denotational == 1.0
    assert rep.queries[0].empirical == 0.0


def test_report_byte_identical_across_runs():
    prog = parse("#bernoulli 0.5")
    cfg = _cfg([IntervalSet.point(1.0)], runs=500, seed=12)
    a = adequacy_check(prog, cfg).to_json()
    b = adequacy_check(prog, cfg).to_json()
    assert a.encode() == b.encode()


def test_partition_masses_sum_exactly():
    prog = parse("#bernoulli 0.25")
    partition = [
        parse_interval_set("(-inf,0.5)"),
        parse_interval_set("[0.5,inf)"),
    ]
    rep = adequacy_check(prog, _cfg(partition, runs=300, seed=2))
    total = sum(q.empirical for q in rep.queries) + rep.exhausted_fraction
    assert total == 1.0


def test_budget_truncation_keeps_inequality_direction():
    # observe with small U: many runs exhaust, empirical <= denotational + slack
    prog = parse("#observe([0,0.05]) sample")
    cfg = AdequacyConfig(
        intervals=(IntervalSet.closed(0.0, 0.05), IntervalSet.closed(0.0, 0.02)),
        runs=300,
        budget=20,
        seed=7,
    )
    rep = adequacy_check(prog, cfg)
    assert rep.exhausted_fraction > 0.1
    for q in rep.queries:
        assert q.empirical <= q.denotational + q.dkw + q.quad_tol


def test_nonconvergent_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(ppcf.denotation, "MAX_ITERS", 25)
    prog = parse("fix (fun y : real -> let x = sample in #ifU(x, [0,0.0001], x, y + 0))")
    cfg = AdequacyConfig(
        intervals=(IntervalSet.closed(0.0, 0.0001),),
        runs=200,
        budget=10,
        seed=1,
    )
    rep = adequacy_check(prog, cfg)
    assert not rep.overall_pass
    assert rep.queries[0].error is not None
    assert "NonConvergent" in rep.queries[0].error


def test_thin_observe_is_solved_not_iterated(monkeypatch):
    # `y + 0` above leaves y under a primitive, so that fix iterates; the
    # tail-affine #observe of the same window is solved without iterates
    monkeypatch.setattr(ppcf.denotation, "MAX_ITERS", 25)
    prog = parse("#observe([0,0.0001]) sample")
    cfg = AdequacyConfig(
        intervals=(IntervalSet.closed(0.0, 0.0001),),
        runs=200,
        budget=10,
        seed=1,
    )
    rep = adequacy_check(prog, cfg)
    assert rep.queries[0].error is None
    assert abs(rep.queries[0].denotational - 1.0) < 1e-9


def test_bonferroni_widens_bound():
    prog = parse("#bernoulli 0.5")
    base = _cfg([IntervalSet.point(1.0), IntervalSet.point(0.0)], runs=400, seed=3)
    wide = _cfg(
        [IntervalSet.point(1.0), IntervalSet.point(0.0)],
        runs=400,
        seed=3,
        bonferroni=True,
    )
    rep_base = adequacy_check(prog, base)
    rep_wide = adequacy_check(prog, wide)
    assert rep_wide.queries[0].dkw > rep_base.queries[0].dkw


def test_csv_format():
    prog = parse("3 + 2")
    rep = adequacy_check(prog, _cfg([IntervalSet.point(5.0)], runs=150, seed=0))
    lines = rep.to_csv().strip().splitlines()
    assert lines[0].startswith("interval,")
    assert len(lines) == 2
    assert "{5}" in lines[1]


def test_cdf_grid_shapes():
    grid = cdf_grid(0.0, 1.0, 5)
    assert len(grid) == 5
    assert grid[0].contains(-100.0)
    assert grid[0].contains(0.0)
    assert not grid[0].contains(0.1)
    assert grid[-1].contains(1.0)


def test_run_floor_validated():
    with pytest.raises(ValueError):
        AdequacyConfig(intervals=(FULL_LINE,), runs=50)


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        AdequacyConfig(intervals=(FULL_LINE,), budget=-1)


def test_denotational_masses_uses_query_probes():
    # a fixpoint whose convergence is judged on the queried set itself
    term = parse("#observe([0,0.5]) sample").inlined_main()
    got = denotational_masses(term, [IntervalSet.closed(0.0, 0.25)])
    assert abs(got[0] - 0.5) < 1e-6


# Pinned masses: a refactor of the denotation must keep these bits.  The
# corpus uses only +, *, /, <=, chi, ifz, let and sample, so the bits do
# not depend on the platform's libm.
_GRID = ("(-inf,0]", "(-inf,0.5]", "(-inf,1]")
_GOLDEN_MASSES = [
    ("#bernoulli 0.3", ("{0}", "{1}"),
     ("0x1.6666666666666p-1", "0x1.3333333333333p-2")),
    ("0.7 * sample + 0.2", _GRID,
     ("0x0.0p+0", "0x1.b6db6db6db6dbp-2", "0x1.0000000000000p+0")),
    ("let x = sample in let y = sample in x + y", _GRID,
     ("0x0.0p+0", "0x1.0000000000000p-3", "0x1.0000000000000p-1")),
    ("let x = sample in let y = sample in x * y", _GRID,
     ("0x0.0p+0", "0x1.b17217f7d1d60p-1", "0x1.0000000000000p+0")),
    ("#observe([0.2,0.9]) sample", _GRID,
     ("0x0.0p+0", "0x1.b6db6db6db6dcp-2", "0x1.0000000000000p+0")),
    ("#expectation(2) (fun x : real -> x) sample", _GRID,
     ("0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0")),
    ("fix (fun y : real -> ifz #bernoulli 0.5 then 1 else y + 0)", ("{1}",),
     ("0x1.ffffe00000000p-1",)),
]


@pytest.mark.parametrize("source,sets,want", _GOLDEN_MASSES,
                         ids=[src for src, _, _ in _GOLDEN_MASSES])
def test_denotational_masses_are_bit_identical_to_golden(source, sets, want):
    term = parse(source).inlined_main()
    got = denotational_masses(term, [parse_interval_set(s) for s in sets])
    assert tuple(m.hex() for m in got) == want


def test_check_interprets_once_for_all_queries(monkeypatch):
    calls = []
    real_interpret = ppcf.harness.interpret

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real_interpret(*args, **kwargs)

    monkeypatch.setattr(ppcf.harness, "interpret", counting)
    prog = parse("#observe([0,0.5]) sample")
    queries = [IntervalSet.closed(0.0, 0.125), IntervalSet.closed(0.0, 0.25), FULL_LINE]
    rep = adequacy_check(prog, _cfg(queries, runs=200, seed=4))
    assert len(calls) == 1
    assert [q.error for q in rep.queries] == [None, None, None]


def test_mass_error_marks_only_its_query():
    failing = IntervalSet.closed(0.0, 0.25)
    add = DEFAULT_TABLE.lookup("add")

    def preimage(i, fixed, lo, hi, target):
        if target == failing:
            raise QuadratureFailure("injected")
        return add.preimage(i, fixed, lo, hi, target)

    table = DEFAULT_TABLE.with_override(
        "add", Primitive("add", 2, add.fn, preimage)
    )
    prog = parse("sample + 0")
    kept = IntervalSet.closed(0.0, 0.5)
    both = adequacy_check(prog, _cfg([failing, kept], runs=200, seed=6), den_table=table)
    alone = adequacy_check(prog, _cfg([kept], runs=200, seed=6), den_table=table)
    assert both.queries[0].denotational is None
    assert both.queries[0].error == "QuadratureFailure: injected"
    assert both.queries[1].error is None
    assert both.queries[1].denotational == alone.queries[0].denotational
