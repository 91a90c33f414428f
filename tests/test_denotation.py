import dataclasses
import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest

import ppcf.denotation
import ppcf.measure
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppcf.denotation import (
    NonConvergent,
    SemFunction,
    fixpoint,
    interpret,
    let_bind,
    zero_value,
)
from ppcf.harness import cdf_grid
from ppcf.intervals import FULL_LINE, IntervalSet, parse_interval_set
from ppcf.measure import IntegralMeasure, PushforwardMeasure, dirac, lebesgue_unit, pushforward
from ppcf.parser import parse_term
from ppcf.primitives import DEFAULT_TABLE, MAXREAL
from ppcf.quadrature import integrate_adaptive
from ppcf.reduction import NormalForm, Split, decompose, plug, step
from ppcf.rng import RngStream
from ppcf.terms import (
    REAL,
    SAMPLE,
    Abs,
    App,
    Arrow,
    Let,
    Numeral,
    Prim,
    Var,
    free_vars,
    substitute,
)
from ppcf.typecheck import typecheck
from test_compile import deterministic_terms

PROBES = (
    IntervalSet.point(0.0),
    IntervalSet.point(1.0),
    IntervalSet.closed(0.0, 0.5),
    parse_interval_set("(0.5,1]"),
    parse_interval_set("(-inf,0.25]"),
    FULL_LINE,
)


def _mass(term_src: str, u: IntervalSet) -> float:
    v = interpret(parse_term(term_src))
    return v.mass(u)


# -- interpret clauses --------------------------------------------------------


def test_numeral_is_dirac():
    assert _mass("5", IntervalSet.point(5.0)) == 1.0


def test_sample_is_uniform():
    assert _mass("sample", IntervalSet.closed(0.0, 0.25)) == 0.25


def test_chi_with_exponent_endpoint():
    t = parse_term("chi[[0,1e20]](sample)")
    assert typecheck({}, t) == REAL
    assert interpret(t).mass(IntervalSet.point(1.0)) == 1.0


def test_let_diagonal_dirac_one():
    assert _mass("let x = sample in x = x", IntervalSet.point(1.0)) == 1.0
    assert _mass("let x = sample in x = x", IntervalSet.point(0.0)) == 0.0


def test_cbn_diagonal_dirac_zero():
    assert _mass("(fun x : real -> x = x) sample", IntervalSet.point(0.0)) == 1.0


def test_normal_is_centered():
    got = _mass("#normal", parse_interval_set("(-inf,0]"))
    assert abs(got - 0.5) < 1e-9


def test_observe_gives_conditional_probability():
    v = interpret(parse_term("#observe([0,0.5]) sample"))
    for hi in (0.125, 0.25, 0.5):
        got = v.mass(IntervalSet.closed(0.0, hi))
        assert abs(got - 2.0 * hi) < 1e-6
    # queries spanning the conditioning boundary see only the overlap
    spanning = v.mass(IntervalSet.closed(0.25, 0.75))
    assert abs(spanning - 2.0 * 0.25) < 1e-6
    # mass outside the conditioning set is zero
    assert v.mass(parse_interval_set("(0.5,1]")) < 1e-6


def test_ifz_mixes_by_scrutinee_mass():
    got = _mass("ifz #bernoulli 0.3 then 10 else 20", IntervalSet.point(10.0))
    assert got == 0.7  # bernoulli is 0 with probability 0.7
    got = _mass("ifz #bernoulli 0.3 then 10 else 20", IntervalSet.point(20.0))
    assert got == 0.3


def test_higher_order_application():
    got = _mass("(fun f : (real -> real) -> f (f 1)) (fun x : real -> x + 1)",
                IntervalSet.point(3.0))
    assert got == 1.0


# -- let_bind ------------------------------------------------------------------


def test_let_bind_atom_bound_is_exact():
    body = lambda r: pushforward(DEFAULT_TABLE.lookup("add"), [dirac(r), dirac(r)])
    m = let_bind(dirac(3.0), body)
    assert m.mass(IntervalSet.point(6.0)) == 1.0


def test_let_bind_constant_body():
    m = let_bind(lebesgue_unit(), lambda r: dirac(7.0))
    assert m.mass(IntervalSet.point(7.0)) == 1.0
    assert m.total_mass() == 1.0


@pytest.mark.parametrize("bound", ["sample", "#exponential"])
def test_deterministic_let_body_is_a_pushforward(bound):
    m = interpret(parse_term(f"let x = {bound} in x * x"))
    assert isinstance(m, PushforwardMeasure)
    mul = DEFAULT_TABLE.lookup("mul").fn
    reference = let_bind(interpret(parse_term(bound)), lambda r: dirac(mul(r, r)))
    assert isinstance(reference, IntegralMeasure)
    for u in cdf_grid(-0.5, 4.0, 20):
        assert m.mass(u) == reference.mass(u)


def test_sampling_let_body_stays_an_integral():
    m = interpret(parse_term("let x = sample in x + sample"))
    assert isinstance(m, IntegralMeasure)


def test_let_bind_gaussian_matches_analytic():
    # gaussian r=1, sigma=0.5 via the encoding; CDF against erf
    v = interpret(parse_term("#gaussian 1 0.5"))

    def cdf(z):
        return 0.5 * (1 + math.erf((z - 1.0) / (0.5 * math.sqrt(2))))

    for z in (0.5, 1.0, 1.75):
        got = v.mass(parse_interval_set(f"(-inf,{z}]"))
        assert abs(got - cdf(z)) < 1e-6


# -- fixpoint -------------------------------------------------------------------


def test_fixpoint_identity_is_zero_measure():
    ident = SemFunction(lambda v: v, REAL)
    out = fixpoint(ident)
    assert out.total_mass() == 0.0


def test_fixpoint_observe_empty_set_is_zero():
    v = interpret(parse_term("#observe([2,3]) sample"))
    assert v.total_mass() == 0.0


def test_fixpoint_geometric_iterates():
    # k-th iterate of observe [0,0.5] has mass sum_{j<k} 0.5 * 0.5^j on [0,0.5]
    fun = interpret(
        parse_term("fun y : real -> let x = sample in ifz chi[[0,0.5]](x) then y else x")
    )
    u = IntervalSet.closed(0.0, 0.5)
    iterate = zero_value(REAL)
    for k in range(1, 8):
        iterate = fun.apply(iterate)
        want = sum(0.5 * 0.5**j for j in range(k))
        assert abs(iterate.mass(u) - want) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    prior=st.sampled_from(["sample", "#exponential"]),
    lo=st.floats(0.0, 1.5),
    width=st.floats(0.05, 0.9),
)
@example(prior="sample", lo=0.0, width=0.5)
def test_fixpoint_monotone_probe_masses(prior, lo, width):
    # the #observe([lo,lo+width]) functional; stopping a Kleene chain on the
    # total mass bounds every query's step because no probe outgrows the total
    fun = interpret(parse_term(
        f"fun y : real -> let x = {prior} in ifz chi[[{lo!r},{lo + width!r}]](x) then y else x"
    ))
    last = {u: 0.0 for u in PROBES}
    iterate = zero_value(REAL)
    for _ in range(10):
        iterate = fun.apply(iterate)
        total_step = iterate.total_mass() - last[FULL_LINE]
        for u in PROBES:
            mass = iterate.mass(u)
            assert mass >= last[u] - 1e-9
            assert mass - last[u] <= total_step + 1e-9
            last[u] = mass


def test_fixpoint_nonconvergent_reports(monkeypatch):
    monkeypatch.setattr(ppcf.denotation, "MAX_ITERS", 40)
    fun = interpret(
        parse_term("fun y : real -> let x = sample in ifz chi[[0,0.001]](x) then y else x")
    )
    with pytest.raises(NonConvergent) as err:
        fixpoint(fun)
    assert err.value.iters == 40
    assert err.value.last_masses


def test_fixpoint_at_arrow_type():
    # fix (\f. \x. x + 0) applied to 2 behaves like the identity on ground
    src = "fix (fun f : (real -> real) -> fun x : real -> x + 0) 2"
    assert _mass(src, IntervalSet.point(2.0)) == 1.0


# -- tail-affine fixpoints -------------------------------------------------------


@pytest.fixture
def fix_calls(monkeypatch):
    calls = []
    real_fixpoint = ppcf.denotation.fixpoint

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real_fixpoint(*args, **kwargs)

    monkeypatch.setattr(ppcf.denotation, "fixpoint", counting)
    return calls


@pytest.mark.parametrize("src, tol", [
    ("#observe([0,5e-7]) sample", 1e-9),
    ("#observe([0,0.001]) sample", 1e-12),
])
def test_thin_observe_has_full_mass(src, tol, fix_calls):
    total = interpret(parse_term(src)).total_mass()
    assert abs(total - 1.0) <= tol
    assert fix_calls == []


def test_observe_exponential_closed_form():
    got = _mass("#observe([0.2,0.9]) #exponential", parse_interval_set("(-inf,0.4]"))
    want = (math.exp(-0.2) - math.exp(-0.4)) / (math.exp(-0.2) - math.exp(-0.9))
    assert abs(got - 0.3600794) < 1e-7
    assert abs(got - want) < 1e-12


def test_nested_observe_closed_form():
    got = _mass("#observe([0,0.5]) (#observe([0.2,0.9]) sample)", IntervalSet.closed(0.2, 0.35))
    assert abs(got - 0.5) < 1e-12


# -- guard splits -----------------------------------------------------------------

_SUPPORTS = {"sample": (0.0, 1.0), "#exponential": (0.0, math.inf), "(2 * sample - 1)": (-1.0, 1.0)}


def _observed_cdf(prior: str, lo: float, hi: float, z: float) -> float:
    """P(X <= z | lo <= X <= hi) for X drawn from `prior`, in exact
    arithmetic on the floats given (60 digits for the exponential)."""
    a, b = _SUPPORTS[prior]
    lo, hi = max(lo, a), min(hi, b)
    top = min(max(z, lo), hi)
    if prior == "#exponential":
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            lo, top, hi = ((-Decimal(v)).exp() for v in (lo, top, hi))
            return float((lo - top) / (lo - hi))
    return float((Fraction(top) - Fraction(lo)) / (Fraction(hi) - Fraction(lo)))


@settings(max_examples=100, deadline=None)
@given(
    prior=st.sampled_from(sorted(_SUPPORTS)),
    place=st.floats(0.0, 1.0),
    width=st.floats(1e-6, 0.9),
    at=st.floats(-0.25, 1.25),
)
@example(prior="sample", place=0.6, width=0.5, at=0.004)  # a sliver of [0.3,0.8]
@example(prior="#exponential", place=0.1, width=1e-6, at=0.5)
def test_observe_masses_match_closed_forms(prior, place, width, at):
    # the window splits the prior exactly, so only rounding is left: about
    # 1e-16 of the prior's mass, relative to the window's mass
    a, b = _SUPPORTS[prior]
    lo = a + place * (min(b, 2.0) - a - width)
    hi, z = lo + width, lo + at * width
    got = _mass(f"#observe([{lo!r},{hi!r}]) {prior}", parse_interval_set(f"(-inf,{z!r}]"))
    assert abs(got - _observed_cdf(prior, lo, hi, z)) <= 1e-15 + 1e-15 / width


@pytest.mark.parametrize("src", ["#observe([0.3,0.8]) sample", "#observe([0.2,0.9]) #exponential"])
def test_observe_queries_need_no_quadrature(src, monkeypatch):
    # the loop's meaning is its prior restricted to the window, so every
    # CDF query is an interval-set mass
    m = interpret(parse_term(src))
    calls = []

    def counting(f, a, b, **kwargs):
        calls.append((a, b))
        return integrate_adaptive(f, a, b, **kwargs)

    monkeypatch.setattr(ppcf.measure, "integrate_adaptive", counting)
    masses = [m.mass(u) for u in cdf_grid(-0.5, 1.5, 20)]
    assert calls == []
    assert masses[0] == 0.0 and abs(masses[-1] - 1.0) < 1e-15


def test_a_branch_that_does_not_lower_integrates_its_restricted_bound():
    # x in [0.3,0.302] takes the else branch, whose let of a sample does not
    # lower in x: its outer integral runs over the window's piece only
    m = interpret(parse_term(
        "let x = sample in ifz chi[[0.3,0.302]](x) then 5"
        " else (let z = sample in ifz chi[[0,0.5]](z) then x else x + 1)"
    ))
    assert abs(m.mass(parse_interval_set("(-inf,0.302]")) - 0.001) < 1e-15
    assert abs(m.mass(parse_interval_set("(-inf,0.301]")) - 0.0005) < 1e-15
    assert abs(m.mass(IntervalSet.point(5.0)) - 0.998) < 1e-15


def test_guard_shaped_arrow_recursion_settles():
    # each branch is free of x, so each iterate is a finite list of atoms
    m = interpret(parse_term(
        "(fix (fun f : (real -> real) -> fun n : real ->"
        " let x = sample in ifz x <= 0.5 then n else f (n + 1))) 0"
    ))
    for k in range(4):
        assert abs(m.mass(IntervalSet.point(float(k))) - 0.5 ** (k + 1)) < 1e-6


def test_guard_shaped_branching_recursion_settles():
    # least solution of m = 0.3 + 0.7 m^2 is 3/7; the chain stops on a step
    # below MASS_TOL while a tail of ratio 1.4 m = 0.6 is left, 1.5 steps
    m = interpret(parse_term("fix (fun y : real -> let x = sample in ifz x <= 0.7 then 0 else y + y)"))
    assert abs(m.total_mass() - 3.0 / 7.0) < 2 * ppcf.denotation.MASS_TOL


@pytest.mark.parametrize("tail", [
    "y + 0",                                  # under a primitive
    "let z = y in z",                         # in a let bound
    "ifz y then 1 else 1",                    # in an ifz scrutinee
    "(fun z : real -> z) y",                  # an application argument
    "(fun z : real -> y) 1",                  # under fun
])
def test_non_tail_fix_iterates(tail, fix_calls):
    # a discrete loop keeps every Kleene iterate a finite list of atoms
    src = f"fix (fun y : real -> ifz #bernoulli 0.5 then 1 else {tail})"
    m = interpret(parse_term(src))
    assert len(fix_calls) == 1
    assert 1.0 - 1e-5 < m.mass(IntervalSet.point(1.0)) <= 1.0


def test_arrow_fix_iterates(fix_calls):
    assert _mass("fix (fun f : (real -> real) -> fun x : real -> x + 0) 2",
                 IntervalSet.point(2.0)) == 1.0
    assert len(fix_calls) == 1


def test_nested_ifz_branches_are_solved(fix_calls):
    # x in [0,0.5] returns x; else half the time 2, half the time loop:
    # A = 0.5 uniform[0,0.5] + 0.25 {2} and q = 0.25
    m = interpret(parse_term(
        "fix (fun y : real -> let x = sample in"
        " ifz chi[[0,0.5]](x) then (ifz chi[[0,0.5]](sample) then y else 2) else x)"
    ))
    assert fix_calls == []
    assert abs(m.mass(IntervalSet.point(2.0)) - 1.0 / 3.0) < 1e-12
    assert abs(m.mass(IntervalSet.closed(0.0, 0.5)) - 2.0 / 3.0) < 1e-12


def test_shadowing_let_is_tail_only(fix_calls):
    # the else branch's `y + 1` reads the inner y, so the outer y is tail-only
    m = interpret(parse_term(
        "fix (fun y : real -> let x = sample in"
        " ifz chi[[0,0.5]](x) then y else (let y = sample in y + 1))"
    ))
    assert fix_calls == []
    assert abs(m.mass(IntervalSet.closed(1.0, 2.0)) - 1.0) < 1e-12


def test_identity_fix_is_zero_measure(fix_calls):
    assert interpret(parse_term("fix (fun y : real -> y)")).total_mass() == 0.0
    assert fix_calls == []


@settings(max_examples=10, deadline=None)
@given(
    prior=st.sampled_from(["sample", "#exponential"]),
    place=st.floats(0.0, 1.0),
    width=st.floats(0.05, 0.9),
    points=st.lists(st.floats(-0.5, 2.5), min_size=1, max_size=4),
)
def test_solved_observe_lies_in_kleene_enclosure(prior, place, width, points):
    # a Kleene iterate mu_k is a lower bound, and sub-probability bounds the
    # rest: mu_k(U) <= m(U) <= mu_k(U) + 1 - mu_k(R)
    lo = place * (1.0 - width)
    body = f"let x = {prior} in ifz chi[[{lo!r},{lo + width!r}]](x) then y else x"
    solved = interpret(parse_term(f"fix (fun y : real -> {body})"))
    chain = fixpoint(interpret(parse_term(f"fun y : real -> {body}")))
    slack = 1.0 - chain.total_mass()
    for z in points:
        u = parse_interval_set(f"(-inf,{z!r}]")
        lower = chain.mass(u)
        assert lower - 1e-8 <= solved.mass(u) <= lower + slack + 1e-8


def test_zero_value_shapes():
    assert zero_value(REAL).total_mass() == 0.0
    fz = zero_value(Arrow(REAL, REAL))
    assert fz.apply(dirac(1.0)).total_mass() == 0.0


# -- semantic laws -------------------------------------------------------------


def test_substitution_property():
    # [[M{N/x}]] == [[M]] in env extended with [[N]]
    cases = [
        ("x + x", "3"),
        ("ifz x then 1 else sample", "0"),
        ("let y = sample in y <= x", "0.25"),
        ("x = x", "sample"),
    ]
    for m_src, n_src in cases:
        m = parse_term(f"fun x : real -> {m_src}").body
        n = parse_term(n_src)
        direct = interpret(substitute(m, "x", n))
        n_value = interpret(n)
        env = {"x": n_value}
        through_env = interpret(m, env)
        for u in PROBES:
            assert abs(direct.mass(u) - through_env.mass(u)) <= 2e-9


DETERMINISTIC_STEP_TERMS = [
    "(fun x : real -> x + x) 3",
    "(fun x : real -> x = x) sample",
    "let x = 0.25 in x * x",
    "ifz 0 then sample else 1",
    "ifz 2 then sample else 1",
    "3 + 2",
    "(fun f : (real -> real) -> f (f 1)) (fun x : real -> x + 1)",
    "#bernoulli 0.3",
    "#expectation(2) (fun x : real -> x) sample",
]


def test_soundness_deterministic_steps():
    # one non-sample step leaves every probe mass unchanged
    for src in DETERMINISTIC_STEP_TERMS:
        t = parse_term(src)
        d = decompose(t)
        assert isinstance(d, Split) and d.redex is not SAMPLE
        stepped = step(t, RngStream(0))
        before = interpret(t)
        after = interpret(stepped)
        for u in PROBES:
            assert abs(before.mass(u) - after.mass(u)) <= 2e-6, src


def test_soundness_sample_step_integral():
    # mass of E[sample] equals the average over r of mass of E[r]
    contexts = [
        "sample + 0.5",
        "ifz chi[[0,0.5]](sample) then 1 else 0",
        "let x = sample in x + x",
    ]
    u = parse_interval_set("[0.5,1.2]")
    for src in contexts:
        t = parse_term(src)
        d = decompose(t)
        assert isinstance(d, Split) and d.redex is SAMPLE
        lhs = interpret(t).mass(u)

        def at(r: float) -> float:
            return interpret(plug(d.context, Numeral(r))).mass(u)

        rhs = integrate_adaptive(at, 0.0, 1.0)
        assert abs(lhs - rhs) <= 1e-6, src


def test_closed_programs_are_subprobability():
    sources = [
        "sample",
        "#bernoulli 0.9",
        "#normal",
        "#observe([0,0.5]) sample",
        "fix (fun y : real -> y)",
        "#expectation(3) (fun x : real -> x) sample",
    ]
    for src in sources:
        total = interpret(parse_term(src)).total_mass()
        assert total <= 1.0 + 1e-6, src


def test_fast_oscillating_chi_mass():
    # 1 + cos(256 pi x) > 1.5 on a third of [0,1]; 804.247719318987 is 256 pi
    src = "let x = sample in chi[(1.5,inf)](1 + cos(804.247719318987 * x))"
    assert abs(_mass(src, IntervalSet.point(1.0)) - 1.0 / 3.0) < 1e-6


# -- let bodies resolved by preimage -------------------------------------------


@pytest.mark.parametrize("op", ["+", "-"])
def test_fused_lets_are_bit_identical_to_the_primitive(op):
    fused = interpret(parse_term(f"let x = sample in let y = sample in x {op} y"))
    prim = interpret(parse_term(f"sample {op} sample"))
    assert isinstance(fused, PushforwardMeasure)
    for u in cdf_grid(-1.5, 1.5, 13):
        assert fused.mass(u).hex() == prim.mass(u).hex()


# fused lets keep the MASS_REFINE pre-split of the let-integral over their
# outer inputs (the golden x * y masses in test_harness.py); a primitive
# pushforward integrates its outer inputs unsplit (the sample * sample
# masses in test_cli.py), so these two pairs agree to a few ulps, not bits
@pytest.mark.parametrize("src, prim_src, grid", [
    ("let x = sample in let y = sample in x * y", "sample * sample", cdf_grid(-1.5, 1.5, 13)),
    ("let x = sample in let y = sample in let z = sample in x + y + z",
     "sample + sample + sample", cdf_grid(0.2, 2.8, 4)),
])
def test_fused_lets_agree_with_the_primitive(src, prim_src, grid):
    fused = interpret(parse_term(src))
    prim = interpret(parse_term(prim_src))
    if src.count("let") == 3:  # a third let nests as the let-integral over a fused pair
        assert isinstance(fused, IntegralMeasure)
    else:
        assert isinstance(fused, PushforwardMeasure) and len(fused.args) == 2
    for u in grid:
        assert abs(fused.mass(u) - prim.mass(u)) <= 1e-15


def _mass_or_error(m, u):
    try:
        return m.mass(u).hex()
    except Exception as e:
        return type(e)


_SAMPLE = parse_term("sample")
_EXPONENTIAL = parse_term("#exponential")
_SYMMETRIC = parse_term("2 * sample - 1")
_CONTINUOUS_BOUNDS = st.sampled_from((_SAMPLE, _EXPONENTIAL, _SYMMETRIC))


def _fusion_example(body, m, n):
    return example(body=parse_term(body), m=m, n=n, t=0.3, ends=(-0.4, 0.9))


# fusion is only a faster way to compute the let-integral it stands for: the
# body behind an application does not compile, so that spelling integrates
# M against the one-input pushforward of N.  Few drawn bodies are inverted
# on y (an ifz or a let sits on its path), so the examples are; a drawn
# body with a chi of both inputs can take 15 s, so the draws are few and fixed
@settings(max_examples=10, deadline=None, derandomize=True)
@given(body=deterministic_terms(("x", "y"), depth=3).filter(
           lambda t: {"x", "y"} <= free_vars(t)),
       m=_CONTINUOUS_BOUNDS, n=_CONTINUOUS_BOUNDS,
       t=st.floats(-2.0, 2.0), ends=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
@_fusion_example("x * y", _EXPONENTIAL, _SYMMETRIC)
@_fusion_example("cos(x * y)", _SAMPLE, _SYMMETRIC)
@_fusion_example("cos(x - 2 * y)", _SYMMETRIC, _SAMPLE)
@_fusion_example("log(x) - y * x", _EXPONENTIAL, _SAMPLE)
@_fusion_example("y / x <= x", _SAMPLE, _SYMMETRIC)
def test_fused_lets_equal_the_let_integral_bit_for_bit(body, m, n, t, ends):
    fused = interpret(Let("x", m, Let("y", n, body)))
    nested = interpret(Let("x", m, App(Abs("w", REAL, Let("y", n, body)), Numeral(0.0))))
    assert isinstance(fused, PushforwardMeasure) and len(fused.args) == 2
    assert isinstance(nested, IntegralMeasure)
    for u in (IntervalSet.interval(-math.inf, t, False, True), IntervalSet.closed(*sorted(ends))):
        assert _mass_or_error(fused, u) == _mass_or_error(nested, u)


def _named_example(e, p):
    return example(e=parse_term(e), p=parse_term(p))


# a ground let is the Kleisli extension of the measure monad, so naming a
# deterministic intermediate denotes what substituting it does, bit for bit
@settings(max_examples=10, deadline=None, derandomize=True)
@given(e=deterministic_terms(("x", "y"), depth=2),
       p=deterministic_terms(("x", "y", "z"), depth=2))
@_named_example("x + y", "z * 0.5")
@_named_example("cos(6.28 * y)", "x * z")
@_named_example("y", "z * z")
@_named_example("y + 1", "x * y")  # unused, yet it depends on the inverted input
def test_named_intermediate_is_the_inline_expression(e, p):
    def under_samples(body):
        return Let("x", SAMPLE, Let("y", SAMPLE, body))

    named = interpret(under_samples(Let("z", e, p)))
    inline = interpret(under_samples(substitute(p, "z", e)))
    for u in (parse_interval_set("(-inf,0.3]"), IntervalSet.closed(0.2, 0.9)):
        assert _mass_or_error(named, u) == _mass_or_error(inline, u)


def test_dependent_lets_do_not_fuse():
    m = interpret(parse_term("let x = sample in let y = x + sample in y * y"))
    assert isinstance(m, IntegralMeasure)


def _without_preimages():
    table = DEFAULT_TABLE
    for name in ("add", "sub", "mul", "div", "log", "neg_log", "exp", "sqrt"):
        table = table.with_override(
            name, dataclasses.replace(DEFAULT_TABLE.lookup(name), preimage=None))
    return table


@pytest.mark.parametrize("src, grid", [
    ("#normal", cdf_grid(-1.0, -1.0, 1)),
    ("#gaussian 0.3 1.2", cdf_grid(1.0, 1.0, 1)),
    ("#exponential", cdf_grid(0.5, 2.0, 2)),
    ("let x = sample in let y = sample in x + y", cdf_grid(0.3, 1.2, 2)),
    ("let x = sample in let y = sample in x * y", cdf_grid(0.2, 0.7, 2)),
    ("let x = sample in let y = sample in let s = x + y in s * 0.5", cdf_grid(0.1, 0.9, 2)),
])
def test_preimage_path_matches_quadrature_fallback(src, grid):
    fast = interpret(parse_term(src))
    slow = interpret(parse_term(src), table=_without_preimages())
    for u in grid:
        assert abs(fast.mass(u) - slow.mass(u)) < 1e-9


# masses recorded before let bodies had preimages: the bodies not inverted
# on their inner input keep the quadrature's bits, and so does the last one
_NON_INVERTIBLE = [
    ("let x = sample in x * x",
     ("0x1.43d136248490fp-2", "0x1.6a09e667f3bccp-1", "0x1.27df395045d0ap-2")),
    # an alias shares its input as the inline spelling does: not inverted
    ("let x = sample in let z = x in z * z",
     ("0x1.43d136248490fp-2", "0x1.6a09e667f3bccp-1", "0x1.27df395045d0ap-2")),
    ("let x = sample in ifz x <= 0.5 then x else 1 - x",
     ("0x0.0p+0", "0x1.0000000000000p-53", "0x1.999999999999ap-2")),
    ("let x = sample in let y = x + sample in y * y",
     ("0x1.999999999993ep-5", "0x1.0000000000004p-2", "0x1.9999999999994p-3")),
    ("let x = sample in let y = sample in x * y * y",
     ("0x1.109e02f15180bp-1", "0x1.d413cccfe7894p-1", "0x1.6c49b20de4190p-3")),
    ("let x = sample in let y = sample in ifz x <= y then x else y",
     ("0x1.47ae147ae147cp-7", "0x1.0000000000000p-2", "0x1.9999999999997p-2")),
    # a jump in the outer input: inverted on y, the inner mass is a step
    # function of x, and the MASS_REFINE pre-split of x keeps these bits
    ("let x = sample in let y = sample in chi[[0.3,0.31]](x) + y",
     ("0x1.95810624dd2f5p-4", "0x1.fae147ae147aep-2", "0x1.95810624dd2f5p-2")),
]


@pytest.mark.parametrize("src, want", _NON_INVERTIBLE, ids=[s for s, _ in _NON_INVERTIBLE])
def test_non_invertible_let_bodies_keep_their_masses(src, want):
    m = interpret(parse_term(src))
    sets = ("(-inf,0.1]", "(-inf,0.5]", "[0.3,0.7]")
    assert tuple(m.mass(parse_interval_set(s)).hex() for s in sets) == want


def test_comparison_of_fused_lets_is_exact():
    # inverted on y, x <= y is 0 where y < x: the inner mass is x, and its
    # integral over the pre-split x is exact
    m = interpret(parse_term("let x = sample in let y = sample in x <= y"))
    assert m.mass(parse_interval_set("(-inf,0]")) == 0.5
    assert m.mass(parse_interval_set("(-inf,0.5]")) == 0.5


def test_primitive_cos_of_a_concrete_argument_is_inverted():
    # the argument's hull [0,1] is one falling piece of cos: the mass is exact
    assert _mass("cos(sample)", parse_interval_set("[0.9,1]")) == math.acos(0.9)
    assert isinstance(interpret(parse_term("cos(sample)")), PushforwardMeasure)


def test_ill_typed_terms_raise_type_errors():
    # interpret does not typecheck first: applying a ground value, fix of a
    # ground value and a function where a measure is needed are type errors
    for src in ("3 4", "fix 3", "sample + (fun x : real -> x)"):
        with pytest.raises(TypeError):
            interpret(parse_term(src))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: a primitive pushforward integrates its outer input unsplit and "
    "steps over the narrow chi; pre-splitting every pushforward's outer inputs fixes "
    "this but takes one #expectation(4) query from under 0.01 s to 44 s"))
def test_narrow_step_in_a_primitive_outer_input():
    # the let spelling, with the pre-split, gets 0.99 * 0.1
    got = _mass("chi[[0.3,0.31]](sample) + sample", parse_interval_set("(-inf,0.1]"))
    assert abs(got - 0.099) < 1e-9


def test_thin_sliver_of_an_observe_window():
    # the observed sample is uniform on [0.3,0.8]: (0.302 - 0.3) / 0.5
    got = _mass("#observe([0.3,0.8]) sample", parse_interval_set("(-inf,0.302]"))
    assert abs(got - 0.004) < 1e-9


@pytest.mark.parametrize("src", ["exp(-1000 * sample)", "let x = sample in exp(-1000 * x)"])
def test_exp_underflow_is_not_in_an_open_set_at_zero(src):
    # exp(-1000 x) underflows to 0, outside (0,inf), once -1000 x is below
    # the log of half the least subnormal
    edge = (math.log(2.0) - math.log(5e-324)) / 1000.0
    assert abs(_mass(src, parse_interval_set("(0,inf)")) - edge) < 1e-9
    assert abs(_mass(src, parse_interval_set("(-inf,0]")) - (1.0 - edge)) < 1e-9


_MAX = "1.7976931348623157e308"
_SATURATED = 1.0 - math.log(MAXREAL / 2.0) / 1000.0  # exp(1000 x) * 2 >= MAXREAL


@pytest.mark.parametrize("src, u, want", [
    ("exp(1000 * sample) * 2", f"{{{_MAX}}}", _SATURATED),
    ("exp(1000 * sample) * 2", f"({_MAX},inf)", 0.0),
    ("exp(1000 * sample) * 2", f"[1e308,{_MAX}]", 1.0 - math.log(5e307) / 1000.0),
    ("0 - exp(1000 * sample) * 2", f"{{-{_MAX}}}", _SATURATED),
    ("exp(1000 * sample) + 1e308", f"{{{_MAX}}}", 1.0 - math.log(MAXREAL - 1e308) / 1000.0),
    ("exp(1000 * sample) - -1e308", f"{{{_MAX}}}", 1.0 - math.log(MAXREAL - 1e308) / 1000.0),
    ("exp(1000 * sample) / 0.5", f"{{{_MAX}}}", _SATURATED),
    ("exp(1000 * sample) * 2", "(-inf,1]", 0.0),
])
def test_arithmetic_preimages_saturate(src, u, want):
    # a result past MAXREAL is clamped to it: the preimage of a set holding
    # MAXREAL takes in every input that overflows, and of one without it none
    assert abs(_mass(src, parse_interval_set(u)) - want) < 1e-9


def test_let_bound_iterate_is_resolved_by_preimage():
    # `let z = y in z` is inverted on z, so each Kleene iterate's masses
    # are one preimage deep instead of a quadrature over the last iterate
    src = ("fix (fun y : real -> let x = sample in "
           "ifz chi[[0,0.5]](x) then (let z = y in z) else x)")
    m = interpret(parse_term(src))
    assert abs(m.mass(parse_interval_set("[0,0.5]")) - 1.0) < 1e-5
    assert abs(m.mass(parse_interval_set("[0,0.25]")) - 0.5) < 1e-5
