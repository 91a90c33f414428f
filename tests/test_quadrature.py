import math

import pytest

import ppcf.quadrature
from ppcf.quadrature import QuadratureFailure, integrate_adaptive


def test_polynomial_is_near_exact():
    got = integrate_adaptive(lambda x: 3 * x * x, 0.0, 2.0)
    assert abs(got - 8.0) < 1e-12


def test_smooth_transcendental():
    got = integrate_adaptive(math.exp, 0.0, 1.0)
    assert abs(got - (math.e - 1.0)) < 1e-9


def test_constant_is_exact():
    assert integrate_adaptive(lambda x: 1.0, 0.0, 1.0) == 1.0
    assert integrate_adaptive(lambda x: 1.0, 0.0, 0.25) == 0.25


def test_step_function_is_exact():
    # the plateau bisection must land on the float threshold
    got = integrate_adaptive(lambda x: 1.0 if x <= 0.3 else 0.0, 0.0, 1.0)
    assert got == 0.3


def test_step_function_arbitrary_threshold():
    c = 0.7234019283746
    got = integrate_adaptive(lambda x: 2.0 if x <= c else 0.5, 0.0, 1.0)
    want = 2.0 * c + 0.5 * (1.0 - c)
    assert abs(got - want) < 1e-14


def test_two_steps_resolve():
    def f(x):
        return 1.0 if 0.2 < x <= 0.6 else 0.0

    got = integrate_adaptive(f, 0.0, 1.0)
    assert abs(got - 0.4) < 1e-14


def test_isolated_spike_integrates_to_zero():
    got = integrate_adaptive(lambda x: 1.0 if x == 0.5 else 0.0, 0.0, 1.0)
    assert abs(got) < 1e-12


def test_kinked_integrand():
    got = integrate_adaptive(lambda x: abs(x - 1 / 3), 0.0, 1.0)
    want = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
    assert abs(got - want) < 1e-9


def test_knots_partition():
    got = integrate_adaptive(lambda x: 1.0 if x < 0.25 else 3.0, 0.0, 1.0, knots=(0.25,))
    assert abs(got - (0.25 + 2.25)) < 1e-12


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)


def test_failure_on_singularity_with_small_depth(monkeypatch):
    monkeypatch.setattr(ppcf.quadrature, "MAX_DEPTH", 12)
    with pytest.raises(QuadratureFailure):
        integrate_adaptive(lambda x: 1.0 / math.sqrt(x) if x > 0 else 1e300, 0.0, 1.0)


def test_empty_interval():
    assert integrate_adaptive(lambda x: x, 0.5, 0.5) == 0.0


def test_step_times_smooth():
    # discontinuity on top of a smooth factor still converges to tolerance
    def f(x):
        return math.exp(-x) if x <= 0.4 else 0.0

    got = integrate_adaptive(f, 0.0, 1.0)
    assert abs(got - (1.0 - math.exp(-0.4))) < 1e-8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_periodic_integrand_is_not_taken_for_a_plateau():
    # the five samples of the first panel all read 2.0, the true mean is 1
    got = integrate_adaptive(lambda x: 1.0 + math.cos(8.0 * math.pi * x), 0.0, 1.0)
    assert abs(got - 1.0) < 1e-6
