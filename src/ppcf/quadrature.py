"""Adaptive Simpson quadrature with plateau/step resolution.

Integrands coming out of the measure layer fall into two families:
smooth functions of a ``sample``, and piecewise-constant "mass of an indicator" maps
with a handful of jumps.  Classic adaptive Simpson handles the first;
for the second this module adds two twists:

* an interval whose five samples are all equal is summed as
  ``width * value`` exactly (no Simpson weights, no rounding),
* an interval that looks like a single jump between two plateaus is
  resolved by float bisection, so the breakpoint is located to one ulp
  and the two plateau contributions are exact products.

Both twists are what make Dirac-style program denotations (Bernoulli
masses, equality tests under ``let``) come out bit-exact rather than
merely within tolerance.
"""

from __future__ import annotations


class QuadratureFailure(Exception):
    """Raised when bisection hits MAX_DEPTH with the local error still large."""


# Absolute and relative error budgets of one integrate_adaptive call, and
# the bisection depth past which it raises QuadratureFailure
ABS_TOL = 1e-9
REL_TOL = 1e-9
MAX_DEPTH = 60

# Minimum per-interval error budget.  Halving the budget at every level
# never terminates on a discontinuity (error and budget shrink at the
# same rate), so the budget is floored; the floor only matters for the
# O(log) intervals straddling a jump, whose true width is ~2^-depth.
_TOL_FLOOR_FACTOR = 1e-6


def _simpson(width: float, fa: float, fm: float, fb: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def _bisect_step(f, lo: float, v_lo: float, hi: float, v_hi: float):
    """Locate a single jump of f between two plateaus.

    Maintains f(lo) == v_lo and f(hi) == v_hi; returns (lo, hi) one ulp
    apart, or None if a third value shows up (not a clean step).
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo, hi
        v = f(mid)
        if v == v_lo:
            lo = mid
        elif v == v_hi:
            hi = mid
        else:
            return None


def _try_step(f, xs, vs):
    """Resolve xs[0]..xs[4] as two plateaus with one jump, or return None.

    The jump point found by bisection is assigned to the left plateau
    (it has measure zero; keeping it left makes closed upper thresholds
    like ``x <= p`` sum to exactly ``p``).
    """
    split = None
    for i in range(4):
        if vs[i] != vs[i + 1]:
            if split is not None:
                return None
            split = i
    if split is None:  # constant; caller handles
        return None
    v_left, v_right = vs[0], vs[4]
    if any(v != v_left for v in vs[: split + 1]):
        return None
    if any(v != v_right for v in vs[split + 1 :]):
        return None
    located = _bisect_step(f, xs[split], v_left, xs[split + 1], v_right)
    if located is None:
        return None
    cut = located[0]
    return (cut - xs[0]) * v_left + (xs[4] - cut) * v_right


def _adaptive(f, a, fa, m, fm, b, fb, whole, tol, tol_floor, rel, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    if fa == flm == fm == frm == fb:
        return (b - a) * fm
    left = _simpson(m - a, fa, flm, fm)
    right = _simpson(b - m, fm, frm, fb)
    delta = left + right - whole
    budget = max(tol, tol_floor, rel * abs(left + right))
    if abs(delta) <= 15.0 * budget:
        return left + right + delta / 15.0
    step = _try_step(f, (a, lm, m, rm, b), (fa, flm, fm, frm, fb))
    if step is not None:
        return step
    if depth >= MAX_DEPTH:
        raise QuadratureFailure(
            f"no convergence on [{a}, {b}] at depth {depth} "
            f"(residual {abs(delta) / 15.0:.3g} > {budget:.3g})"
        )
    half = tol / 2.0
    return (_adaptive(f, a, fa, lm, flm, m, fm, left, half, tol_floor, rel, depth + 1)
            + _adaptive(f, m, fm, rm, frm, b, fb, right, half, tol_floor, rel, depth + 1))


def integrate_adaptive(f, a: float, b: float, *, knots=()) -> float:
    """Integrate f over [a, b], subdividing first at the given interior knots.

    Knots mark where to split before adapting (the measure layer splits
    [0,1] evenly for mass integrands); each panel then gets an equal
    share of the absolute tolerance.
    """
    if a == b:
        return 0.0
    if a > b:
        raise ValueError("integrate_adaptive requires a <= b")
    cuts = [a] + sorted(k for k in knots if a < k < b) + [b]
    # /4 safety: leaf errors are positively correlated on one-sided
    # integrands (convex tails), so the nominal sum-of-budgets bound is
    # taken with headroom
    tol = ABS_TOL / (len(cuts) - 1) / 4.0
    tol_floor = tol * _TOL_FLOOR_FACTOR
    rel = REL_TOL / 4.0
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        flo = f(lo)
        fhi = f(hi)
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        whole = _simpson(hi - lo, flo, fmid, fhi)
        total += _adaptive(f, lo, flo, mid, fmid, hi, fhi, whole, tol, tol_floor, rel, 0)
    return total
