"""Independent oracle for the benchmark: closed forms and known verdicts.

Nothing here imports ppcf.  Every expected mass is a closed-form CDF
computed with ``math`` (or exact ``fractions`` for Irwin-Hall), and every
stability verdict is known from the shape of the function checked.

Two tolerances are applied to each output:

* *wrong* (the ``wrong_frac`` metric): a denotational mass farther from
  the closed form than the report's own ``quad_tol``, or an empirical
  mass farther than its own ``dkw_bound``;
* *gross* (the ``correct`` flag of the result line): a denotational mass
  farther than ``quad_tol + DEN_SLACK``, or an empirical mass farther
  than ``2 * dkw_bound`` (a DKW miss probability of about 1e-9 at the 1%
  setting).  ``DEN_SLACK`` lets the Kleene stopping-rule error of
  ``#observe`` through (up to about 2e-5 on windows of prior mass 0.05)
  but no error of 1e-4 or more.  One reading
  is wrong but not gross: a denotational mass of exactly 0 where the
  true mass is below ``ALIAS_MASS``.  That is the quadrature's
  five-equal-samples plateau rule stepping over a query that cuts a thin
  sliver off an ``#observe`` window.

A stability operation whose exit code differs from the known verdict is
both wrong and gross.
"""

from __future__ import annotations

import math
from fractions import Fraction

DEN_SLACK = 1e-4
ALIAS_MASS = 0.1


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _uniform_cdf(lo: float, hi: float, t: float) -> float:
    return _clamp01((t - lo) / (hi - lo))


def irwin_hall_mean_cdf(n: int, x: float) -> float:
    """P((U_1 + ... + U_n) / n <= x), exact in rationals then rounded."""
    t = Fraction(x) * n
    if t <= 0:
        return 0.0
    if t >= n:
        return 1.0
    total = Fraction(0)
    for k in range(math.floor(t) + 1):
        total += (-1) ** k * math.comb(n, k) * (t - k) ** n
    return float(total / math.factorial(n))


def _sum2_cdf(t: float) -> float:
    if t <= 0.0:
        return 0.0
    if t <= 1.0:
        return t * t / 2.0
    if t <= 2.0:
        return 1.0 - (2.0 - t) ** 2 / 2.0
    return 1.0


def _prod2_cdf(t: float) -> float:
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return t - t * math.log(t)


def _exponential_cdf(t: float) -> float:
    return 0.0 if t <= 0.0 else -math.expm1(-t)


def _truncated_exponential_cdf(a: float, b: float, t: float) -> float:
    if t <= a:
        return 0.0
    if t >= b:
        return 1.0
    return math.expm1(-(t - a)) / math.expm1(-(b - a))


def _bernoulli_cdf(p: float, t: float) -> float:
    if t < 0.0:
        return 0.0
    if t < 1.0:
        return 1.0 - p
    return 1.0


def cdf(family: str, params: dict, t: float) -> float:
    """P(X <= t) for the program family with the given parameters."""
    if family == "normal":
        return normal_cdf(t)
    if family == "gaussian":
        return normal_cdf((t - params["m"]) / params["s"])
    if family == "sum2":
        return _sum2_cdf(t)
    if family == "prod2":
        return _prod2_cdf(t)
    if family == "exponential":
        return _exponential_cdf(t)
    if family == "bernoulli":
        return _bernoulli_cdf(params["p"], t)
    if family == "affine":
        return _uniform_cdf(params["b"], params["b"] + params["a"], t)
    if family == "expectation":
        return irwin_hall_mean_cdf(params["n"], t)
    if family == "observe_uniform":
        return _uniform_cdf(params["lo"], params["hi"], t)
    if family == "observe_exponential":
        return _truncated_exponential_cdf(params["lo"], params["hi"], t)
    raise ValueError(f"no closed form for family {family!r}")


def stability_accepts(params: dict) -> bool:
    """Known verdict of a pre-stability check (order n >= 1 throughout).

    ``wpor`` (s + t - s t) fails the mixed second difference; ``poly``
    and every polynomial with nonnegative coefficients are absolutely
    monotonic on the unit cube; ``a x1 + b x2 - c x1 x2`` with c > 0
    fails like ``wpor``.
    """
    target = params["target"]
    if target == "wpor":
        return False
    if target == "poly":
        return True
    if target == "fn":
        return all(c >= 0.0 for c in params["coeffs"])
    raise ValueError(f"no known verdict for target {target!r}")


def judge_mass(expected: float, den: float | None, emp: float, dkw: float,
               quad_tol: float) -> tuple[bool, bool]:
    """(wrong, gross) for one query; den is None on the operational-only path."""
    wrong = abs(emp - expected) > dkw
    gross = abs(emp - expected) > 2.0 * dkw
    if den is not None:
        wrong = wrong or abs(den - expected) > quad_tol
        aliased = den == 0.0 and expected < ALIAS_MASS
        gross = gross or (abs(den - expected) > quad_tol + DEN_SLACK and not aliased)
    return wrong, gross
