"""Numerical absolute-monotonicity (pre-stability) checks on the unit cube.

A function f : [0,1]^k -> R+ is checked for order-n pre-stability by
enumerating grid points x and tuples of lattice increments u_1..u_m
(m = 1..n+1) and comparing the signed difference sums

    D-(x; u) <= D+(x; u) + slack

where D+/- sum f over subsets of the increments with even/odd
complement parity.  `delta_signed` is the specification of those sums;
the equivalent recursive iterated-difference formulation
(`iterated_delta`) is implemented independently, and the two must agree
to float accuracy, which is itself one of the checks the test suite runs.

`check_pre_stable` walks the lattice in integer indices: a depth-first
walk over non-decreasing increment indices that prunes every branch
whose integer sum on some axis passes the grid, so exactly the tuples
that fit in the cube are built, in `combinations_with_replacement`
order.  It sums D- and D+ in one pass per tuple, from a subset table
built once per length and in `delta_signed`'s order of additions, and
evaluates f once per distinct point of a report (f is pure).
`StabilityReport.to_json` writes what `json`'s indenting encoder, which
runs in Python, would write, calling it on the report's head only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

Point = tuple[float, ...]


class DomainError(Exception):
    pass


@dataclass(frozen=True)
class PointFn:
    k: int
    eval: Callable[..., float]
    label: str

    def __call__(self, x: Point) -> float:
        return self.eval(*x)


@dataclass(frozen=True)
class Violation:
    x: Point
    increments: tuple[Point, ...]
    delta_minus: float
    delta_plus: float


@dataclass(frozen=True)
class StabilityReport:
    label: str
    n: int
    grid: int
    slack: float
    checked: int
    exhaustive: bool
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """`json.dumps(..., sort_keys=True, indent=2)` of the report; each point is written once."""
        head = json.dumps({**vars(self), "verdict": "pass" if self.passed else "fail",
                           "violations": []}, sort_keys=True, indent=2)
        texts: dict[tuple[int, int], str] = {}  # by identity and indent, as 0.0 == -0.0

        def point(p: Point, pad: int) -> str:
            if (id(p), pad) not in texts:
                texts[id(p), pad] = _json_list([_json_float(c) for c in p], pad)
            return texts[id(p), pad]

        rows = [f'{{\n      "delta_minus": {_json_float(v.delta_minus)},'
                f'\n      "delta_plus": {_json_float(v.delta_plus)},'
                f'\n      "increments": {_json_list([point(u, 10) for u in v.increments], 8)},'
                f'\n      "x": {point(v.x, 8)}\n    }}' for v in self.violations]
        return head[:-len("[]\n}")] + _json_list(rows, 4) + "\n}"


def _json_float(v: float) -> str:
    return float.__repr__(v) if math.isfinite(v) else json.dumps(v)


def _json_list(items: list[str], pad: int) -> str:
    """Written `items` as an indent-2 JSON list, one item a line at `pad` spaces."""
    if not items:
        return "[]"
    return "[\n" + " " * pad + (",\n" + " " * pad).join(items) + "\n" + " " * (pad - 2) + "]"


def _check_cube(f: PointFn, x: Point, us: tuple[Point, ...]) -> None:
    if len(x) != f.k or any(len(u) != f.k for u in us):
        raise DomainError("dimension mismatch")
    for u in us:
        if any(c < 0.0 for c in u):
            raise DomainError("increments must be nonnegative")
    top = list(x)
    for u in us:
        for i, c in enumerate(u):
            top[i] += c
    if any(c < 0.0 or c > 1.0 for c in x) or any(c > 1.0 + 1e-12 for c in top):
        raise DomainError(f"point escapes the unit cube: x={x}, sum={tuple(top)}")


def _offset(x: Point, us, subset) -> Point:
    out = list(x)
    for i in subset:
        for axis, c in enumerate(us[i]):
            out[axis] += c
    return tuple(min(c, 1.0) for c in out)  # guard float drift at the lid


def delta_signed(f: PointFn, x: Point, us, sign: str) -> float:
    """Sum of f over increment subsets with the requested parity.

    With no increments: D+ is f(x) and D- is 0.
    """
    us = tuple(tuple(u) for u in us)
    _check_cube(f, tuple(x), us)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    n = len(us)
    want_even = sign == "+"
    total = 0.0
    for size in range(n + 1):
        if ((n - size) % 2 == 0) != want_even:
            continue
        for subset in itertools.combinations(range(n), size):
            total += f(_offset(tuple(x), us, subset))
    return total


def iterated_delta(f: PointFn, x: Point, us) -> float:
    """Recursive differences f_{i+1}(x) = f_i(x + u_{i+1}) - f_i(x)."""
    us = tuple(tuple(u) for u in us)
    _check_cube(f, tuple(x), us)

    def go(point: Point, remaining) -> float:
        if not remaining:
            return f(point)
        u, rest = remaining[0], remaining[1:]
        shifted = tuple(min(a + b, 1.0) for a, b in zip(point, u))
        return go(shifted, rest) - go(point, rest)

    return go(tuple(x), us)


def _fitting_tuples(incs, fits, cap, length: int):
    """Non-decreasing index tuples into `incs` whose sum stays within `cap`.

    Yields in `combinations_with_replacement` order; `fits[c]` lists, in
    ascending order, the increments that fit under the capacity vector c.
    The test is exact in lattice units, so a tuple whose float sum rounds
    just above 1 still fits (`_offset` clamps its points to the lid).
    """
    def walk(start, cap, prefix):
        fit = fits[cap]
        for j in fit[bisect_left(fit, start):]:
            tup = prefix + (j,)
            if len(tup) == length:
                yield tup
            else:
                yield from walk(j, tuple(c - d for c, d in zip(cap, incs[j])), tup)

    return walk(0, cap, ())


@functools.cache
def _subsets(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(odd complement parity, subset) per subset of range(n), in `delta_signed`'s order."""
    return tuple(((n - size) % 2, s)
                 for size in range(n + 1) for s in itertools.combinations(range(n), size))


def _signed_sums(f: PointFn, x: Point, us, memo: dict) -> tuple[float, float]:
    """(D-, D+) of `delta_signed` in one pass, each point added as `_offset` adds it and f
    memoised by point; callers build only tuples that fit in lattice units, so it checks none."""
    d_minus = d_plus = 0.0
    for odd, subset in _subsets(len(us)):
        out = list(x)
        for i in subset:
            for axis, c in enumerate(us[i]):
                out[axis] += c
        point = tuple([1.0 if c > 1.0 else c for c in out])
        value = memo.get(point)
        if value is None:
            value = memo[point] = f(point)
        if odd:
            d_minus += value
        else:
            d_plus += value
    return d_minus, d_plus


_SUBSAMPLE_SEED = 20250810
_SUBSAMPLE_BUDGET = 20_000


def check_pre_stable(f: PointFn, n: int, grid: int = 8, slack: float = 1e-9) -> StabilityReport:
    """Grid check of order-n pre-stability (tuples of length 1..n+1).

    Exhaustive for k <= 2 and n <= 3; beyond that a fixed-seed random
    subsample of the same lattice is used.
    """
    if n < 0:
        raise ValueError("order n must be >= 0")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError("slack must be finite and >= 0")
    point_idx = list(itertools.product(range(grid + 1), repeat=f.k))
    inc_idx = point_idx[1:]  # every index vector but the zero one
    points = [tuple(i / grid for i in p) for p in point_idx]
    increments = points[1:]
    exhaustive = f.k <= 2 and n <= 3
    violations = []
    checked = 0
    memo: dict[Point, float] = {}

    def record(x, us):
        nonlocal checked
        checked += 1
        d_minus, d_plus = _signed_sums(f, x, us, memo)
        if d_minus > d_plus + slack:
            violations.append(Violation(x, us, d_minus, d_plus))

    if exhaustive:
        fits = {
            cap: [j for j, u in enumerate(inc_idx) if all(a <= c for a, c in zip(u, cap))]
            for cap in point_idx
        }
        for length in range(1, n + 2):
            for xi, x in zip(point_idx, points):
                cap = tuple(grid - i for i in xi)
                for js in _fitting_tuples(inc_idx, fits, cap, length):
                    record(x, tuple(increments[j] for j in js))
    else:
        rng = random.Random(_SUBSAMPLE_SEED)
        attempts = 0
        while checked < _SUBSAMPLE_BUDGET and attempts < 50 * _SUBSAMPLE_BUDGET:
            attempts += 1
            length = rng.randint(1, n + 1)
            xi = rng.randrange(len(points))
            js = [rng.randrange(len(increments)) for _ in range(length)]
            # exact in lattice units, as in the exhaustive walk
            if all(i + sum(inc_idx[j][axis] for j in js) <= grid
                   for axis, i in enumerate(point_idx[xi])):
                record(points[xi], tuple(increments[j] for j in js))

    return StabilityReport(
        label=f.label,
        n=n,
        grid=grid,
        slack=slack,
        checked=checked,
        exhaustive=exhaustive,
        violations=tuple(violations),
    )


# -- the bundled example functions ------------------------------------------


def wpor() -> PointFn:
    """Probabilistic parallel-or s + t - s*t: Scott continuous, not stable."""
    return PointFn(2, lambda s, t: s + t - s * t, "wpor")


def identity_fn() -> PointFn:
    return PointFn(1, lambda x: x, "identity")


def poly_fn(coeffs) -> PointFn:
    """sum of c_i x^i with nonnegative coefficients (absolutely monotonic)."""
    cs = tuple(float(c) for c in coeffs)
    if any(c < 0 for c in cs):
        raise ValueError("poly_fn expects nonnegative coefficients")

    def evaluate(x: float) -> float:
        total = 0.0
        for c in reversed(cs):
            total = total * x + c
        return total

    label = "poly(" + ",".join(repr(c) for c in cs) + ")"
    return PointFn(1, evaluate, label)


GALLERY = {
    "wpor": wpor,
    "identity": identity_fn,
    "poly": lambda: poly_fn((0.0, 0.0, 0.5, 0.3)),  # 0.5 x^2 + 0.3 x^3
}
