import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppcf.intervals import FULL_LINE, IntervalSet, parse_interval_set
from ppcf.measure import (
    Atom,
    ConcreteMeasure,
    IntegralMeasure,
    WeightedSumMeasure,
    dirac,
    lebesgue_unit,
    mix,
    pushforward,
)
from ppcf.primitives import DEFAULT_TABLE, MAXREAL, cos_preimage
from ppcf.rng import RngStream


def _prim(name):
    return DEFAULT_TABLE.lookup(name)


# -- mass ---------------------------------------------------------------------


def test_mass_atom_in_interval():
    assert dirac(5.0).mass(IntervalSet.closed(4.0, 6.0)) == 1.0
    assert dirac(5.0).mass(IntervalSet.closed(6.0, 7.0)) == 0.0


def test_mass_uniform_prefix():
    assert lebesgue_unit().mass(IntervalSet.closed(0.0, 0.25)) == 0.25


def test_mass_bernoulli_mixture():
    m = mix([0.3, 0.7], [dirac(1.0), dirac(0.0)])
    assert m.mass(IntervalSet.point(1.0)) == 0.3
    assert m.mass(IntervalSet.point(0.0)) == 0.7
    assert m.total_mass() == 1.0


def test_mass_density_unbounded_query():
    m = lebesgue_unit()
    assert m.mass(parse_interval_set("(-inf,inf)")) == 1.0
    assert m.mass(IntervalSet.point(0.5).complement()) == 1.0


# -- integrate ------------------------------------------------------------------


def test_integrate_uniform_mean():
    got = lebesgue_unit().integrate(lambda r: r)
    assert abs(got - 0.5) < 1e-9


def test_integrate_dirac_evaluates():
    assert dirac(2.0).integrate(lambda r: r * r + 1) == 5.0


def test_integrate_exponential_total():
    m = pushforward(_prim("neg_log"), [lebesgue_unit()])
    got = m.integrate(lambda r: 1.0)
    assert abs(got - 1.0) < 1e-9


# -- mix -------------------------------------------------------------------------


def test_mix_merges_equal_atoms():
    m = mix([1.0, 1.0], [dirac(0.0), dirac(0.0)])
    assert isinstance(m, ConcreteMeasure)
    assert m.atoms == (Atom(0.0, 2.0),)


def test_mix_scales_density():
    m = mix([0.5], [lebesgue_unit()])
    assert abs(m.mass(FULL_LINE) - 0.5) < 1e-12
    assert abs(m.mass(IntervalSet.closed(0.0, 0.5)) - 0.25) < 1e-12


def test_mix_length_mismatch():
    with pytest.raises(ValueError):
        mix([1.0], [dirac(0.0), dirac(1.0)])


def test_mix_linearity_on_probe_sets():
    mus = [dirac(0.25), lebesgue_unit(), mix([0.5, 0.5], [dirac(0.0), dirac(1.0)])]
    coeffs = [0.2, 0.3, 0.5]
    mixed = mix(coeffs, mus)
    for u in (IntervalSet.point(0.0), IntervalSet.closed(0.0, 0.5), FULL_LINE):
        want = sum(c * m.mass(u) for c, m in zip(coeffs, mus))
        assert abs(mixed.mass(u) - want) < 1e-12


# -- pushforward -------------------------------------------------------------------


def test_pushforward_atoms_exact():
    m = pushforward(_prim("add"), [dirac(3.0), dirac(2.0)])
    assert isinstance(m, ConcreteMeasure)
    assert m.atoms == (Atom(5.0, 1.0),)
    assert m.mass(IntervalSet.point(5.0)) == 1.0
    assert m.mass(IntervalSet.point(5.0).complement()) == 0.0


def test_pushforward_equality_of_independent_uniforms():
    m = pushforward(_prim("eq"), [lebesgue_unit(), lebesgue_unit()])
    assert m.mass(IntervalSet.point(0.0)) == 1.0
    assert m.mass(IntervalSet.point(1.0)) == 0.0


def test_pushforward_neg_log_exponential():
    m = pushforward(_prim("neg_log"), [lebesgue_unit()])
    got = m.mass(IntervalSet.closed(0.0, 1.0))
    assert abs(got - (1.0 - math.exp(-1.0))) < 1e-9


def test_pushforward_arity_checked():
    with pytest.raises(ValueError):
        pushforward(_prim("add"), [dirac(1.0)])


def test_pushforward_vs_sampling_oracle():
    # independent Monte-Carlo oracle over the same product measure, one
    # case per primitive in the default table (chi included)
    rng = RngStream(2024)
    u = IntervalSet.closed(0.2, 0.9)

    def safe_log(x):
        return math.log(x) if x > 0 else -1e308

    cases = [
        ("add", lambda: rng.uniform() + rng.uniform(),
         [lebesgue_unit(), lebesgue_unit()]),
        ("sub", lambda: rng.uniform() - 0.25,
         [lebesgue_unit(), dirac(0.25)]),
        ("mul", lambda: rng.uniform() * 0.5,
         [lebesgue_unit(), dirac(0.5)]),
        ("div", lambda: rng.uniform() / 0.8,
         [lebesgue_unit(), dirac(0.8)]),
        ("eq", lambda: 1.0 if rng.uniform() == 0.3 else 0.0,
         [lebesgue_unit(), dirac(0.3)]),
        ("lt", lambda: 1.0 if rng.uniform() < 0.45 else 0.0,
         [lebesgue_unit(), dirac(0.45)]),
        ("le", lambda: 1.0 if rng.uniform() <= 0.45 else 0.0,
         [lebesgue_unit(), dirac(0.45)]),
        ("log", lambda: safe_log(rng.uniform()),
         [lebesgue_unit()]),
        ("neg_log", lambda: -safe_log(rng.uniform()),
         [lebesgue_unit()]),
        ("exp", lambda: math.exp(rng.uniform()),
         [lebesgue_unit()]),
        ("sqrt", lambda: math.sqrt(rng.uniform()),
         [lebesgue_unit()]),
        ("cos", lambda: math.cos(rng.uniform() * 6.0),
         [pushforward(_prim("mul"), [lebesgue_unit(), dirac(6.0)])]),
        ("chi[[0.1,0.6]]", lambda: 1.0 if 0.1 <= rng.uniform() <= 0.6 else 0.0,
         [lebesgue_unit()]),
    ]
    n = 30_000
    dkw = math.sqrt(math.log(2 / 0.01) / (2 * n))
    for name, sampler, args in cases:
        m = pushforward(DEFAULT_TABLE.lookup(name), args)
        want = m.mass(u)
        hits = sum(1 for _ in range(n) if u.contains(sampler()))
        assert abs(hits / n - want) <= dkw + 1e-6, name


# -- preimages -------------------------------------------------------------------


def _interval_sets(ends):
    piece = st.tuples(ends, ends, st.booleans(), st.booleans()).map(
        lambda p: IntervalSet.interval(min(p[:2]), max(p[:2]), p[2], p[3]))
    return st.lists(piece, min_size=1, max_size=3).map(
        lambda sets: IntervalSet([q for s in sets for q in s.pieces]))


def _at_an_end(fn, u: IntervalSet, pre: IntervalSet, x: float) -> bool:
    """Whether x is within 4 ulps of an end of pre(U) or of {x : fn(x) in U},
    or fn, flat in floats, cannot tell x from an end of pre(U): both map
    within 4 ulps of the same end of U."""
    near = [x]
    for _ in range(4):
        near = [math.nextafter(near[0], -math.inf)] + near + [math.nextafter(near[-1], math.inf)]
    if len({pre.contains(z) for z in near}) > 1 or len({u.contains(fn(z)) for z in near}) > 1:
        return True

    def ends(s):
        return [e for p in s.pieces for e in (p.lo, p.hi) if math.isfinite(e)]

    def at(y, c):
        return abs(y - c) <= 4.0 * math.ulp(c)

    y = fn(x)
    return any(at(y, c) and at(fn(e), c) for c in ends(u) for e in ends(pre))


_CLAMP_ENDS = st.one_of(
    st.floats(-800.0, 800.0),
    st.floats(-1e-3, 1e-3),
    st.sampled_from([-math.inf, math.inf, 0.0, 1.0, MAXREAL, -MAXREAL]),
)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(["log", "neg_log", "exp", "sqrt"]),
       u=_interval_sets(_CLAMP_ENDS),
       x=st.one_of(st.floats(-800.0, 800.0), st.floats(-1e-3, 1e-3),
                   st.floats(allow_nan=False, allow_infinity=False)))
@example(name="log", u=parse_interval_set("(-inf,-700]"), x=-3.0)
@example(name="neg_log", u=parse_interval_set("[700,inf)"), x=0.0)
@example(name="sqrt", u=parse_interval_set("[0,1]"), x=-2.0)
@example(name="exp", u=parse_interval_set("{0}"), x=-800.0)
@example(name="exp", u=parse_interval_set("[1e308,inf)"), x=1000.0)
@example(name="exp", u=parse_interval_set("(0,inf)"), x=-800.0)
@example(name="exp", u=parse_interval_set("(0,1]"), x=-800.0)
@example(name="exp", u=IntervalSet.interval(MAXREAL, math.inf, False, False), x=1000.0)
def test_clamped_preimages_hold_off_their_ends(name, u, x):
    # x is in pre(U) exactly when fn(x) is in U, clamped regions included,
    # except at an end of a piece
    prim = _prim(name)
    pre = prim.preimage(0, [None], -math.inf, math.inf, u)
    if pre.contains(x) != u.contains(prim.fn(x)):
        assert _at_an_end(prim.fn, u, pre, x)


@settings(max_examples=300, deadline=None)
@given(u=_interval_sets(st.one_of(st.floats(-1.2, 1.2),
                                  st.sampled_from([-math.inf, math.inf, -1.0, 0.0, 1.0]))),
       lo=st.floats(-900.0, 900.0), width=st.floats(0.0, 900.0), t=st.floats(0.0, 1.0))
@example(u=parse_interval_set("(0.5,inf)"), lo=0.0, width=804.247719318987, t=0.5)
def test_cos_preimage_holds_off_its_ends(u, lo, width, t):
    hi = lo + width
    x = min(hi, lo + t * width)
    pre = cos_preimage(u, lo, hi)
    if pre.contains(x) != u.contains(math.cos(x)):
        assert _at_an_end(math.cos, u, pre, x)


_BINARY_ENDS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-math.inf, math.inf, 0.0, 1.0, MAXREAL, -MAXREAL]),
)
_BINARY_VALUES = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-3, 1e-3),
                           st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([0.0, 5e-324, MAXREAL, -MAXREAL]))


@settings(max_examples=1000, deadline=None)
@given(name=st.sampled_from(["add", "sub", "mul", "div", "eq", "lt", "le"]),
       slot=st.sampled_from([0, 1]), u=_interval_sets(_BINARY_ENDS),
       c=_BINARY_VALUES, x=_BINARY_VALUES)
@example(name="div", slot=0, u=parse_interval_set("{0}"), c=0.0, x=3.0)
@example(name="div", slot=0, u=parse_interval_set("[1,2]"), c=0.0, x=3.0)
@example(name="div", slot=1, u=parse_interval_set("[1,2]"), c=3.0, x=2.0)
@example(name="lt", slot=1, u=parse_interval_set("{1}"), c=0.5, x=0.75)
@example(name="lt", slot=1, u=parse_interval_set("{0}"), c=0.5, x=0.5)
@example(name="le", slot=1, u=parse_interval_set("{1}"), c=0.5, x=0.5)
@example(name="le", slot=1, u=parse_interval_set("{0}"), c=0.5, x=0.25)
def test_binary_preimages_hold_off_their_ends(name, slot, u, c, x):
    # x is in pre(U) exactly when fn(..x..) is in U, except at an end of a
    # piece for the arithmetic, whose ends round; div has no preimage in its
    # denominator
    prim = _prim(name)
    fixed = [c, c]
    fixed[slot] = None
    pre = prim.preimage(slot, fixed, -math.inf, math.inf, u)
    if (name, slot) == ("div", 1):
        assert pre is None
        return

    def fn(z):
        args = [c, c]
        args[slot] = z
        return prim.fn(*args)

    if pre.contains(x) != u.contains(fn(x)):
        assert name in ("add", "sub", "mul", "div") and _at_an_end(fn, u, pre, x)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(["log", "neg_log", "exp", "sqrt", "cos", "chi[[0.1,0.6] + {2}]"]),
       u=_interval_sets(_CLAMP_ENDS),
       x=st.one_of(st.floats(-900.0, 900.0), st.floats(-1e-3, 1e-3)),
       below=st.floats(0.0, 900.0), above=st.floats(0.0, 900.0))
@example(name="cos", u=parse_interval_set("[0.9,1]"), x=0.5, below=0.5, above=0.5)
def test_unary_table_preimages_hold_off_their_ends(name, u, x, below, above):
    # through the table entry, with a finite range [lo, hi] holding x
    prim = _prim(name)
    pre = prim.preimage(0, [None], x - below, x + above, u)
    if pre.contains(x) != u.contains(prim.fn(x)):
        assert _at_an_end(prim.fn, u, pre, x)


def test_cos_preimage_needs_a_range_of_few_pieces():
    u = parse_interval_set("[0,1]")
    assert cos_preimage(u, 0.0, math.inf) is None
    assert cos_preimage(u, 0.0, 1e6) is None
    assert cos_preimage(u, 0.0, 256 * math.pi) is not None


# -- queryable structure ----------------------------------------------------------


def test_integral_measure_constant_body():
    m = IntegralMeasure(lebesgue_unit(), lambda r: dirac(7.0))
    assert m.mass(IntervalSet.point(7.0)) == 1.0
    assert m.total_mass() == 1.0


def test_integral_measure_memoizes():
    calls = 0

    def body(r):
        nonlocal calls
        calls += 1
        return dirac(r)

    m = IntegralMeasure(lebesgue_unit(), body)
    m.mass(IntervalSet.closed(0.0, 0.5))
    first = calls
    m.mass(IntervalSet.closed(0.0, 0.5))
    assert calls == first  # repeated query answered from the mass cache
    m.mass(IntervalSet.closed(0.0, 0.5).complement())
    fresh = calls - first
    # new query reuses body measures at shared quadrature nodes
    assert fresh < first


def test_weighted_sum_measure():
    m = WeightedSumMeasure([0.5, 0.5], [dirac(0.0), lebesgue_unit()])
    assert m.mass(IntervalSet.point(0.0)) == 0.5
    assert abs(m.total_mass() - 1.0) < 1e-12


# -- invariants -------------------------------------------------------------------


_PROBE_MEASURES = None


def _probe_measures():
    global _PROBE_MEASURES
    if _PROBE_MEASURES is None:
        _PROBE_MEASURES = [
            dirac(0.5),
            lebesgue_unit(),
            mix([0.3, 0.7], [dirac(1.0), dirac(0.0)]),
            pushforward(_prim("neg_log"), [lebesgue_unit()]),
            pushforward(_prim("add"), [lebesgue_unit(), dirac(0.25)]),
        ]
    return _PROBE_MEASURES


_PROBE_SETS = [
    IntervalSet.point(0.0),
    IntervalSet.closed(0.0, 0.5),
    parse_interval_set("[0.25,0.75)"),
    parse_interval_set("(-inf,0.3]"),
    FULL_LINE,
]


def test_finite_additivity():
    left = parse_interval_set("[0,0.5)")
    right = parse_interval_set("[0.5,1]")
    both = left.union(right)
    for m in _probe_measures():
        err = abs(m.mass(both) - m.mass(left) - m.mass(right))
        assert err <= 2e-9


def test_monotonicity():
    small = parse_interval_set("[0.1,0.4]")
    large = parse_interval_set("[0,1]")
    for m in _probe_measures():
        assert m.mass(small) <= m.mass(large) + 1e-9


def test_cone_order():
    for m in _probe_measures():
        rho = dirac(0.5, 0.25)
        nu = mix([1.0, 1.0], [m, rho])
        for u in _PROBE_SETS:
            assert m.mass(u) <= nu.mass(u) + 1e-9
