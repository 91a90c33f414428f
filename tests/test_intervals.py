import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ppcf.intervals import (
    EMPTY,
    FULL_LINE,
    IntervalSet,
    format_interval_set,
    parse_interval_set,
)
from ppcf.primitives import DEFAULT_TABLE, PrimitiveTable, chi_name


def test_normalization_merges_adjacent_compatible():
    s = IntervalSet([(1.0, 2.0, True, False), (2.0, 3.0, True, True)])
    assert s.pieces == ((1.0, 3.0, True, True),)


def test_normalization_keeps_punctured_gap():
    s = IntervalSet([(0.0, 1.0, True, False), (1.0, 2.0, False, True)])
    assert len(s.pieces) == 2
    assert not s.contains(1.0)


def test_point_membership_is_exact():
    s = IntervalSet.point(0.3)
    assert s.contains(0.3)
    assert not s.contains(0.30000000000000004)


def test_open_closed_endpoints():
    s = IntervalSet.interval(0.0, 1.0, False, True)
    assert not s.contains(0.0)
    assert s.contains(1.0)
    assert s.contains(0.5)


def test_complement_roundtrip():
    s = parse_interval_set("[0,0.5) + {1} + (2,inf)")
    c = s.complement()
    for x in (-1.0, 0.5, 0.75, 1.5, 2.0):
        assert c.contains(x)
        assert not s.contains(x)
    for x in (0.0, 0.25, 1.0, 3.0):
        assert s.contains(x)
        assert not c.contains(x)
    assert c.complement() == s


def test_complement_of_point_is_punctured_line():
    c = IntervalSet.point(0.0).complement()
    assert not c.contains(0.0)
    assert c.contains(-1e-300)
    assert c.contains(1e-300)


def test_intersect():
    a = parse_interval_set("[0,1]")
    b = parse_interval_set("(0.5,2]")
    assert a.intersect(b) == parse_interval_set("(0.5,1]")
    assert a.intersect(EMPTY) == EMPTY
    assert a.intersect(FULL_LINE) == a


def test_union_merges():
    a = parse_interval_set("[0,1]")
    b = parse_interval_set("[1,2]")
    assert a.union(b) == parse_interval_set("[0,2]")


def test_shift_scale_negate():
    s = parse_interval_set("[1,2)")
    assert s.shift(1.0) == parse_interval_set("[2,3)")
    assert s.scale(2.0) == parse_interval_set("[2,4)")
    assert s.scale(-1.0) == parse_interval_set("(-2,-1]")
    assert s.negate() == s.scale(-1.0)


def test_shift_and_scale_open_an_overflowing_endpoint():
    big = parse_interval_set("[-1e308,1e308]")
    assert big.shift(1e308) == IntervalSet.interval(0.0, math.inf, True, False)
    assert big.scale(10.0) == FULL_LINE
    assert big.scale(-10.0) == FULL_LINE
    assert parse_interval_set("[0,1e308]").scale(-10.0) == parse_interval_set("(-inf,0]")
    assert parse_interval_set("{1e308} + [0,1]").shift(1e308) == parse_interval_set("{1e308}")


def test_divide_by_a_subnormal():
    tiny = 5e-324  # 1 / tiny overflows to inf
    assert parse_interval_set("(-inf,0]").divide(tiny) == parse_interval_set("(-inf,0]")
    assert parse_interval_set("(0,0.5]").divide(tiny) == parse_interval_set("(0,inf)")
    assert parse_interval_set("(0,0.5]").divide(-tiny) == parse_interval_set("(-inf,0)")
    assert parse_interval_set("[1,2)").divide(4.0) == parse_interval_set("[0.25,0.5)")
    with pytest.raises(ValueError):
        parse_interval_set("[1,2)").divide(0.0)


def test_mul_preimage_at_a_subnormal_factor():
    pre = DEFAULT_TABLE.lookup("mul").preimage
    tiny = 5e-324
    for target in ("(-inf,0]", "(0,0.5]", "[-1,1]"):
        u = parse_interval_set(target)
        assert pre(0, [None, tiny], -math.inf, math.inf, u) == u.divide(tiny)
        assert pre(1, [-tiny, None], -math.inf, math.inf, u) == u.divide(-tiny)
    # a normal factor keeps the multiplication by its reciprocal
    u = parse_interval_set("(-inf,0.3]")
    assert pre(0, [None, 0.7], -math.inf, math.inf, u) == u.scale(1.0 / 0.7)


def test_parse_format_roundtrip():
    for text in ("[0,0.5)", "{1}", "(-inf,0] + {1} + [2,3)", "(0,inf)", "[0,1e+20]",
                 "(0,+inf)", "{}"):
        s = parse_interval_set(text)
        assert parse_interval_set(format_interval_set(s)) == s


def test_parse_union_sign():
    assert parse_interval_set("[0,1] ∪ {2}") == parse_interval_set("[0,1] + {2}")


def test_parse_rejects_garbage():
    for bad in ("", "[0,1", "[b,2]", "[2,1]", "{nan}", "{inf}", "{-inf}", "[nan,1]", "[0,nan]",
                "(0,0)", "[inf,inf]"):
        with pytest.raises(ValueError):
            parse_interval_set(bad)


def test_chi_of_empty_set_looks_up():
    chi = DEFAULT_TABLE.lookup(chi_name(EMPTY))
    assert chi_name(EMPTY) == "chi[{}]"
    for x in (-1e300, -1.0, 0.0, 0.5, 1.0, 1e300):
        assert chi.fn(x) == 0.0
    assert chi.preimage(0, [None], -math.inf, math.inf, IntervalSet.point(0.0)) == FULL_LINE


def test_chi_entry_is_built_once():
    table = PrimitiveTable()
    name = chi_name(IntervalSet.closed(0.25, 0.75))
    first = table.lookup(name)
    assert table.lookup(name) is first
    assert first.fn(0.5) == 1.0 and first.fn(0.8) == 0.0


def test_malformed_chi_name_is_not_an_entry():
    table = PrimitiveTable()
    with pytest.raises(ValueError):
        table.lookup("chi[[1,0]]")
    assert "chi[[1,0]]" not in table
    with pytest.raises(ValueError):
        table.lookup("chi[[1,0]]")


def test_infinite_endpoints_are_open():
    s = parse_interval_set("(-inf,inf)")
    assert s == FULL_LINE
    assert IntervalSet.interval(-math.inf, 0.0, True, True) == parse_interval_set("(-inf,0]")
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            IntervalSet.point(x)
    with pytest.raises(ValueError):
        IntervalSet.interval(math.nan, 1.0)
    with pytest.raises(ValueError):
        IntervalSet.closed(0.0, math.nan)


def test_total_length():
    assert parse_interval_set("[0,0.25] + [0.5,1]").total_length() == 0.75


def test_key_is_canonical():
    a = IntervalSet([(0.0, 1.0, True, True), (0.5, 2.0, True, True)])
    b = IntervalSet.closed(0.0, 2.0)
    assert a == b and hash(a) == hash(b)


_ENDS = (-math.inf, -2.0, -0.0, 0.0, 0.5, 1.0, math.inf)


@st.composite
def interval_sets(draw):
    """Unions of up to four pieces over a few shared endpoints: points,
    open and closed ends, infinite ends, and both zeros."""
    u = EMPTY
    for _ in range(draw(st.integers(0, 4))):
        lo, hi = sorted(draw(st.sampled_from(_ENDS)) for _ in range(2))
        u = u.union(IntervalSet.interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return u


@given(interval_sets(),
       st.lists(st.one_of(st.sampled_from(_ENDS), st.floats(-3.0, 3.0)), max_size=30))
@example(IntervalSet.point(0.0), [-0.0, 0.0, 0.0, 1.0])
@example(IntervalSet.interval(-0.0, 1.0, False, True), [-0.0, 0.0, 0.5, 1.0, 1.0])
@example(IntervalSet.interval(-math.inf, 0.5, False, False), [-math.inf, 0.5, 0.25])
def test_count_by_bisection_equals_membership(u, values):
    assert u.count(sorted(values)) == sum(u.contains(v) for v in values)


def _probes(*sets):
    """Both zeros, every end of the sets with its float neighbours, and the
    midpoints between consecutive ends: the reals where membership can change."""
    ends = sorted({e for s in sets for lo, hi, _, _ in s.pieces for e in (lo, hi)})
    probes = [-0.0, 0.0]
    for e in ends:
        probes += [math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)]
    probes += [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    return [x for x in probes if math.isfinite(x)]


def _assert_canonical(s):
    for lo, hi, lo_closed, hi_closed in s.pieces:
        assert lo <= hi
        assert not (lo == -math.inf and lo_closed) and not (hi == math.inf and hi_closed)
        assert lo != hi or (lo_closed and hi_closed)
    # sorted, and apart: _normalize merges pieces that overlap or touch
    for (_, q_hi, _, q_hi_closed), (p_lo, _, p_lo_closed, _) in zip(s.pieces, s.pieces[1:]):
        assert q_hi < p_lo or (q_hi == p_lo and not q_hi_closed and not p_lo_closed)


@given(interval_sets(), interval_sets())
@example(IntervalSet.point(0.0), IntervalSet.interval(-0.0, 1.0, False, True))
@example(parse_interval_set("[0,1) + (1,2]"), IntervalSet.point(1.0))
def test_set_algebra_agrees_with_membership(a, b):
    results = {
        "union": (a.union(b), lambda x: a.contains(x) or b.contains(x)),
        "intersect": (a.intersect(b), lambda x: a.contains(x) and b.contains(x)),
        "complement": (a.complement(), lambda x: not a.contains(x)),
        "difference": (a.difference(b), lambda x: a.contains(x) and not b.contains(x)),
    }
    for name, (s, member) in results.items():
        _assert_canonical(s)
        for x in _probes(a, b):
            assert s.contains(x) == member(x), (name, s, x)
    # the memo caches key on sets: a non-canonical one would miss silently
    assert a.union(b) == b.union(a) and hash(a.union(b)) == hash(b.union(a))
    assert a.complement().complement() == a
