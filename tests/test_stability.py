import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcf.stability import (
    DomainError,
    PointFn,
    _feasible,
    check_pre_stable,
    delta_signed,
    identity_fn,
    iterated_delta,
    poly_fn,
    wpor,
)

W = wpor()


# -- delta_signed ---------------------------------------------------------------


def test_wpor_single_increment():
    # D+ = f(x+u), D- = f(x) for one increment
    assert delta_signed(W, (0.0, 0.0), [(0.5, 0.5)], "+") == 0.75
    assert delta_signed(W, (0.0, 0.0), [(0.5, 0.5)], "-") == 0.0


def test_empty_increments():
    assert delta_signed(W, (0.25, 0.5), [], "+") == W((0.25, 0.5))
    assert delta_signed(W, (0.25, 0.5), [], "-") == 0.0


def test_linear_second_difference_vanishes():
    f = identity_fn()
    d_plus = delta_signed(f, (0.0,), [(0.3,), (0.4,)], "+")
    d_minus = delta_signed(f, (0.0,), [(0.3,), (0.4,)], "-")
    assert abs(d_plus - d_minus) < 1e-15


def test_three_increment_expansion():
    # n=3: D- takes the pair sums and the empty set
    f = poly_fn((0.0, 1.0))  # identity as a polynomial
    x, us = (0.0,), [(0.1,), (0.2,), (0.3,)]
    d_minus = delta_signed(f, x, us, "-")
    want = f((0.3,)) + f((0.5,)) + f((0.4,)) + f((0.0,))
    assert abs(d_minus - want) < 1e-15


def test_domain_error_outside_cube():
    with pytest.raises(DomainError):
        delta_signed(W, (0.8, 0.8), [(0.5, 0.5)], "+")
    with pytest.raises(DomainError):
        delta_signed(W, (-0.1, 0.0), [], "+")
    with pytest.raises(DomainError):
        delta_signed(W, (0.0, 0.0), [(-0.2, 0.0)], "+")


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        delta_signed(W, (0.0, 0.0), [(0.1, 0.1)], "x")


# -- iterated_delta ---------------------------------------------------------------


def test_first_difference():
    f = poly_fn((0.0, 0.0, 1.0))  # x^2
    got = iterated_delta(f, (0.1,), [(0.2,)])
    assert abs(got - ((0.3) ** 2 - 0.1**2)) < 1e-15


def test_second_difference_of_square():
    # 2 * u1 * u2 for f = x^2
    f = poly_fn((0.0, 0.0, 1.0))
    got = iterated_delta(f, (0.1,), [(0.2,), (0.3,)])
    assert abs(got - 0.12) < 1e-12


def test_permutation_invariance():
    got_a = iterated_delta(W, (0.1, 0.0), [(0.2, 0.1), (0.1, 0.3)])
    got_b = iterated_delta(W, (0.1, 0.0), [(0.1, 0.3), (0.2, 0.1)])
    assert abs(got_a - got_b) < 1e-12


def test_two_code_paths_agree_on_random_queries():
    rng = random.Random(7)
    fns = [W, poly_fn((0.1, 0.4, 0.3, 0.2)), identity_fn()]
    for _ in range(10_000):
        f = fns[rng.randrange(len(fns))]
        n = rng.randint(0, 3)
        x = tuple(rng.uniform(0.0, 0.3) for _ in range(f.k))
        us = [tuple(rng.uniform(0.0, 0.15) for _ in range(f.k)) for _ in range(n)]
        direct = iterated_delta(f, x, us)
        signed = delta_signed(f, x, us, "+") - delta_signed(f, x, us, "-")
        assert abs(direct - signed) <= 1e-10


def test_equivalence_biconditional_on_grid():
    # n-non-decreasing iff n-pre-stable, restated pointwise: the
    # iterated difference is >= -slack exactly when D- <= D+ + slack
    slack = 1e-9
    grid = [i / 4 for i in range(5)]
    for x0 in grid:
        for u1 in grid:
            for u2 in grid:
                if x0 + u1 + u2 > 1.0:
                    continue
                x, us = (x0, 0.0), [(u1, u1), (u2, 0.25 * u2)]
                if x[0] + us[0][0] + us[1][0] > 1.0 or x[1] + us[0][1] + us[1][1] > 1.0:
                    continue
                direct = iterated_delta(W, x, us)
                d_plus = delta_signed(W, x, us, "+")
                d_minus = delta_signed(W, x, us, "-")
                assert (direct >= -slack) == (d_minus <= d_plus + slack)


def test_delta_linearity():
    rng = random.Random(11)
    f = poly_fn((0.0, 0.2, 0.5))
    g = poly_fn((0.1, 0.3))
    for _ in range(200):
        a, b = rng.uniform(0, 2), rng.uniform(0, 2)
        combo = PointFn(1, lambda x: a * f.eval(x) + b * g.eval(x), "combo")
        x = (rng.uniform(0, 0.4),)
        us = [(rng.uniform(0, 0.2),), (rng.uniform(0, 0.2),)]
        want = a * iterated_delta(f, x, us) + b * iterated_delta(g, x, us)
        assert abs(iterated_delta(combo, x, us) - want) <= 1e-10


def test_difference_shift_identity():
    # Df(x+u; us) = Df(x; us) + Df(x; u, us)
    rng = random.Random(13)
    for _ in range(200):
        u = (rng.uniform(0, 0.2), rng.uniform(0, 0.2))
        us = [(rng.uniform(0, 0.2), rng.uniform(0, 0.2))]
        x = (rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        shifted = tuple(a + b for a, b in zip(x, u))
        lhs = iterated_delta(W, shifted, us)
        rhs = iterated_delta(W, x, us) + iterated_delta(W, x, [u] + us)
        assert abs(lhs - rhs) <= 1e-10


# -- check_pre_stable ----------------------------------------------------------


def test_wpor_fails_order_one_with_witness():
    report = check_pre_stable(W, n=1, grid=8)
    assert not report.passed
    witness = [
        v
        for v in report.violations
        if v.x == (0.0, 0.0) and v.increments == ((0.5, 0.5), (0.5, 0.5))
    ]
    assert witness
    assert witness[0].delta_minus == 1.5
    assert witness[0].delta_plus == 1.0


def test_wpor_is_monotone_order_zero():
    report = check_pre_stable(W, n=0, grid=6)
    # order 0 checks single increments only: wpor is non-decreasing
    # but not supermodular; length-1 tuples all pass
    assert report.passed


def test_identity_passes():
    for n in range(5):
        assert check_pre_stable(identity_fn(), n=n, grid=8).passed


def test_nonneg_polynomial_passes():
    f = poly_fn((0.0, 0.0, 0.5, 0.3))
    for n in range(5):
        assert check_pre_stable(f, n=n, grid=8).passed


def test_sum_closure():
    f = poly_fn((0.0, 0.3, 0.2))
    g = poly_fn((0.1, 0.0, 0.0, 0.4))
    fails_f = check_pre_stable(f, n=2, grid=6)
    fails_g = check_pre_stable(g, n=2, grid=6)
    both = PointFn(1, lambda x: f.eval(x) + g.eval(x), "f+g")
    assert fails_f.passed and fails_g.passed
    assert check_pre_stable(both, n=2, grid=6).passed


def test_subsampled_beyond_exhaustive_bounds():
    report = check_pre_stable(identity_fn(), n=4, grid=8)
    assert not report.exhaustive
    assert report.checked > 0
    assert report.passed


def test_report_dict_shape():
    d = check_pre_stable(W, n=1, grid=4).to_dict()
    assert d["verdict"] == "fail"
    assert d["violations"]
    assert set(d["violations"][0]) == {"x", "increments", "delta_minus", "delta_plus"}


def test_grid_and_order_validation():
    with pytest.raises(ValueError):
        check_pre_stable(W, n=-1)
    with pytest.raises(ValueError):
        check_pre_stable(W, n=1, grid=1)
    for slack in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError):
            check_pre_stable(W, n=1, grid=4, slack=slack)


def test_poly_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        poly_fn((0.5, -0.1))


# -- the pruned enumeration against the definition -----------------------------


def _reference_check(f, n, grid, slack=1e-9):
    """Every feasible tuple of combinations_with_replacement, two delta_signed each."""
    axis = [i / grid for i in range(grid + 1)]
    points = list(itertools.product(axis, repeat=f.k))
    increments = [u for u in points if any(c > 0.0 for c in u)]
    checked, violations = 0, []
    for length in range(1, n + 2):
        for x in points:
            for us in itertools.combinations_with_replacement(increments, length):
                if not _feasible(x, us):
                    continue
                checked += 1
                d_minus = delta_signed(f, x, us, "-")
                d_plus = delta_signed(f, x, us, "+")
                if d_minus > d_plus + slack:
                    violations.append((x, us, d_minus, d_plus))
    return checked, violations


def _hex_violation(x, us, d_minus, d_plus):
    return (
        tuple(c.hex() for c in x),
        tuple(tuple(c.hex() for c in u) for u in us),
        d_minus.hex(),
        d_plus.hex(),
    )


def _assert_matches_reference(f, n, grid):
    report = check_pre_stable(f, n, grid)
    checked, violations = _reference_check(f, n, grid)
    assert report.exhaustive
    assert report.checked == checked
    got = [_hex_violation(v.x, v.increments, v.delta_minus, v.delta_plus)
           for v in report.violations]
    assert got == [_hex_violation(*v) for v in violations]


# x - x^3 is increasing at order 0 but concave, so higher orders fail
_CONCAVE = PointFn(1, lambda x: x - x * x * x, "x-x^3")


@pytest.mark.parametrize("f", [_CONCAVE, W], ids=["k1", "k2"])
@pytest.mark.parametrize("n", range(4))
def test_exhaustive_loop_matches_definition(f, n):
    top = 5 if (f.k, n) == (2, 3) else 8
    for grid in range(2, top + 1):
        _assert_matches_reference(f, n, grid)


_COEFF = st.sampled_from((-1.0, -0.5, -0.25, 0.0, 0.125, 0.3, 0.5, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(("poly", "bilinear")),
    coeffs=st.lists(_COEFF, min_size=4, max_size=4),
    n=st.integers(0, 2),
    grid=st.integers(2, 5),
)
def test_exhaustive_loop_matches_definition_on_random_functions(shape, coeffs, n, grid):
    a, b, c, d = coeffs
    if shape == "poly":
        f = PointFn(1, lambda x: ((d * x + c) * x + b) * x + a, "poly")
    else:
        f = PointFn(2, lambda x1, x2: a * x1 + b * x2 + c * x1 * x2, "bilinear")
    _assert_matches_reference(f, n, grid)


@pytest.mark.parametrize("k,n,grid", [(1, 3, 8), (2, 2, 6), (2, 4, 4), (3, 1, 4)])
def test_each_point_is_evaluated_once_per_report(k, n, grid):
    calls = Counter()

    def evaluate(*x):
        calls[x] += 1
        return sum(x) - 0.5 * x[0] * x[-1]

    report = check_pre_stable(PointFn(k, evaluate, "counted"), n, grid)
    assert report.checked > 0
    assert set(calls.values()) == {1}
