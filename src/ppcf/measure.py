"""Sub-probability measures on the real line.

Two kinds of measure live here.  *Concrete* measures are finite lists of
Dirac atoms plus weighted copies of Lebesgue measure on [0,1], the
meaning of ``sample``; every other continuous distribution the language
denotes is a pushforward of it.  Their masses are exact: an atom adds its
weight, and a Lebesgue weight adds ``weight * length``.
*Queryable* measures (primitive pushforwards, ``let``-integrals,
weighted sums, fixpoint chains) answer ``mass(U)`` and ``integrate(g)``
on demand and memoize mass queries per interval set.

Exactness strategy for pushforwards: all-atom argument lists collapse to
exact atom products at construction; otherwise the innermost integration
dimension is resolved through the primitive's preimage (an interval-set
computation) whenever the primitive provides one, so indicator
integrands never reach the quadrature for those primitives.  The
preimage is called as ``preimage(slot, values, lo, hi, U)`` with the
``hull()`` of the inner argument for ``[lo, hi]``: the atoms and [0,1] of
a concrete measure, the whole line for any other.  The primitive may be
a compiled ``let`` body over one bound measure or two fused ones, whose
preimage pulls the set back through the body (see ``ir``).  The
outer dimensions then integrate the inner mass, a continuous function;
for a ``let`` body they keep the ``MASS_REFINE`` pre-split of the
``let``-integral the pushforward stands for.  A primitive without a
preimage, or whose preimage returns None, falls back to quadrature over
the indicator, pre-split by ``MASS_REFINE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .intervals import FULL_LINE, IntervalSet
from .primitives import Primitive
from .quadrature import integrate_adaptive


@dataclass(frozen=True)
class Atom:
    location: float
    weight: float

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValueError("atom location must be finite")
        if self.weight < 0:
            raise ValueError("atom weight must be nonnegative")


_UNIT = IntervalSet.closed(0.0, 1.0)

# Initial uniform subdivision for mass integrands.  Mass queries on
# queryable measures integrate indicator-shaped functions whose support
# can dodge the five Simpson probes of a single panel; pre-splitting
# [0,1] bounds the miss window to features narrower than about
# 1/(4 * refine).  Constant panels collapse in one probe, so the
# overhead on flat regions is small.
MASS_REFINE = 32


class Measure:
    """Common query interface; concrete subclasses below."""

    def mass(self, u: IntervalSet) -> float:
        raise NotImplementedError

    def integrate(self, g: Callable[[float], float], refine: int = 0) -> float:
        raise NotImplementedError

    def total_mass(self) -> float:
        return self.mass(FULL_LINE)

    def hull(self) -> tuple[float, float]:
        """An interval holding the support."""
        return -math.inf, math.inf

    @property
    def has_continuous(self) -> bool:
        raise NotImplementedError


class ConcreteMeasure(Measure):
    """Dirac atoms plus weights of Lebesgue measure on [0,1].

    The weights are kept apart, never summed, so a mass adds one term per
    weight in the order ``mix`` met them.
    """

    __slots__ = ("atoms", "lebesgue")

    def __init__(self, atoms=(), lebesgue=()):
        self.atoms = tuple(atoms)
        self.lebesgue = tuple(lebesgue)

    @property
    def has_continuous(self) -> bool:
        return bool(self.lebesgue)

    def mass(self, u: IntervalSet) -> float:
        total = 0.0
        for atom in self.atoms:
            if u.contains(atom.location):
                total += atom.weight
        if self.lebesgue:
            lengths = [piece.hi - piece.lo for piece in _UNIT.intersect(u).pieces
                       if not piece.is_point]
            for weight in self.lebesgue:
                if weight != 0.0:
                    for length in lengths:
                        total += weight * length
        return total

    def integrate(self, g, refine: int = 0) -> float:
        total = 0.0
        for atom in self.atoms:
            if atom.weight != 0.0:
                total += atom.weight * g(atom.location)
        if self.lebesgue:
            knots = tuple(k / refine for k in range(1, refine)) if refine > 1 else ()
            for weight in self.lebesgue:
                if weight != 0.0:
                    total += weight * integrate_adaptive(g, 0.0, 1.0, knots=knots)
        return total

    def hull(self) -> tuple[float, float]:
        """The atoms' locations, and [0,1] for Lebesgue weights."""
        points = [a.location for a in self.atoms] + ([0.0, 1.0] if self.lebesgue else [])
        return (min(points), max(points)) if points else (-math.inf, math.inf)

    def __repr__(self):
        return f"ConcreteMeasure(atoms={self.atoms!r}, lebesgue={self.lebesgue!r})"


def dirac(location: float, weight: float = 1.0) -> ConcreteMeasure:
    return ConcreteMeasure((Atom(location, weight),))


def lebesgue_unit() -> ConcreteMeasure:
    """The uniform distribution on [0,1], the meaning of ``sample``."""
    return ConcreteMeasure((), (1.0,))


class _Memoized(Measure):
    __slots__ = ("_mass_cache",)

    def __init__(self):
        self._mass_cache: dict = {}

    def mass(self, u: IntervalSet) -> float:
        key = u.key()
        got = self._mass_cache.get(key)
        if got is None:
            got = self._compute_mass(u)
            self._mass_cache[key] = got
        return got

    def _compute_mass(self, u: IntervalSet) -> float:
        raise NotImplementedError

    @property
    def has_continuous(self) -> bool:
        return True


class _PreimageUnsupported(Exception):
    pass


class PushforwardMeasure(_Memoized):
    """Image of a product of argument measures under a primitive.

    ``outer_refine`` pre-splits the outer dimensions of a preimage query,
    which integrate the inner mass, as ``refine`` does in ``integrate``.
    """

    __slots__ = ("prim", "args", "outer_refine")

    def __init__(self, prim: Primitive, args, outer_refine: int = 0):
        super().__init__()
        self.prim = prim
        self.args = tuple(args)
        self.outer_refine = outer_refine
        if len(self.args) != prim.arity:
            raise ValueError(f"{prim.name} expects {prim.arity} arguments")

    def _compute_mass(self, u: IntervalSet) -> float:
        continuous = [j for j, a in enumerate(self.args) if a.has_continuous]
        if self.prim.preimage is not None and continuous:
            try:  # the innermost continuous argument, by preimage
                return self._mass_via_preimage(u, continuous[-1])
            except _PreimageUnsupported:
                pass
        return self.integrate(lambda y: 1.0 if u.contains(y) else 0.0, refine=MASS_REFINE)

    def _mass_via_preimage(self, u: IntervalSet, inner: int) -> float:
        preimage, inner_arg = self.prim.preimage, self.args[inner]
        lo, hi = inner_arg.hull()

        def inner_mass(values: list) -> float:
            pre = preimage(inner, values, lo, hi, u)
            if pre is None:
                raise _PreimageUnsupported
            return inner_arg.mass(pre)

        outer = [i for i in range(len(self.args)) if i != inner]
        return self._nested(outer, self.outer_refine, inner_mass)

    def integrate(self, g, refine: int = 0) -> float:
        fn = self.prim.fn
        return self._nested(range(len(self.args)), refine, lambda values: g(fn(*values)))

    def _nested(self, dims, refine: int, leaf) -> float:
        """leaf(values) integrated against the arguments at `dims`, outermost
        first; `values` holds their current values, None elsewhere."""
        values: list = [None] * len(self.args)

        def rec(k: int) -> float:
            if k == len(dims):
                return leaf(values)
            i = dims[k]

            def with_value(v: float) -> float:
                values[i] = v
                return rec(k + 1)

            return self.args[i].integrate(with_value, refine)

        return rec(0)

    def __repr__(self):
        return f"PushforwardMeasure({self.prim.name}, {len(self.args)} args)"


class IntegralMeasure(_Memoized):
    """U |-> integral of body(r).mass(U) against the bound measure.

    Body measures are cached per quadrature node r, so repeated mass
    queries with different interval sets reuse the same tower.
    """

    __slots__ = ("bound", "body", "_body_cache")

    def __init__(self, bound: Measure, body: Callable[[float], Measure]):
        super().__init__()
        self.bound = bound
        self.body = body
        self._body_cache: dict[float, Measure] = {}

    def _body_at(self, r: float) -> Measure:
        m = self._body_cache.get(r)
        if m is None:
            m = self.body(r)
            self._body_cache[r] = m
        return m

    def _compute_mass(self, u: IntervalSet) -> float:
        return self.bound.integrate(lambda r: self._body_at(r).mass(u),
                                    refine=MASS_REFINE)

    def integrate(self, g, refine: int = 0) -> float:
        return self.bound.integrate(
            lambda r: self._body_at(r).integrate(g, refine), refine
        )

    def __repr__(self):
        return f"IntegralMeasure(bound={self.bound!r})"


class WeightedSumMeasure(_Memoized):
    __slots__ = ("coeffs", "measures")

    def __init__(self, coeffs, measures):
        super().__init__()
        self.coeffs = tuple(coeffs)
        self.measures = tuple(measures)

    def _compute_mass(self, u: IntervalSet) -> float:
        return sum(c * m.mass(u) for c, m in zip(self.coeffs, self.measures))

    def integrate(self, g, refine: int = 0) -> float:
        return sum(c * m.integrate(g, refine) for c, m in zip(self.coeffs, self.measures))


class FixpointChainMeasure(Measure):
    """Final iterate of a Kleene chain.

    Queries walk the whole chain front to back, priming each iterate's
    memo cache, so the recursion depth per query stays constant in the
    chain length.
    """

    __slots__ = ("chain",)

    def __init__(self, chain):
        if not chain:
            raise ValueError("fixpoint chain must be nonempty")
        self.chain = tuple(chain)

    @property
    def has_continuous(self) -> bool:
        return True

    def mass(self, u: IntervalSet) -> float:
        value = 0.0
        for m in self.chain:
            value = m.mass(u)
        return value

    def integrate(self, g, refine: int = 0) -> float:
        return self.chain[-1].integrate(g, refine)


def mix(coeffs, measures) -> Measure:
    """Weighted sum of measures; concrete inputs merge into one concrete measure."""
    coeffs = [float(c) for c in coeffs]
    measures = list(measures)
    if len(coeffs) != len(measures):
        raise ValueError("mix needs matching coefficient and measure lists")
    if any(c < 0 for c in coeffs):
        raise ValueError("mix coefficients must be nonnegative")
    live = [(c, m) for c, m in zip(coeffs, measures) if c != 0.0]
    if not live:
        return ConcreteMeasure()
    if all(isinstance(m, ConcreteMeasure) for _, m in live):
        merged: dict[float, float] = {}
        for c, m in live:
            for atom in m.atoms:
                merged[atom.location] = merged.get(atom.location, 0.0) + c * atom.weight
        atoms = tuple(Atom(loc, w) for loc, w in sorted(merged.items()))
        return ConcreteMeasure(atoms, [c * w for c, m in live for w in m.lebesgue])
    return WeightedSumMeasure([c for c, _ in live], [m for _, m in live])


_ATOM_COLLAPSE_LIMIT = 100_000


def pushforward(prim: Primitive, args, outer_refine: int = 0) -> Measure:
    """Image measure of prim applied to independent argument measures."""
    args = tuple(args)
    if len(args) != prim.arity:
        raise ValueError(f"{prim.name} expects {prim.arity} arguments, got {len(args)}")
    if all(isinstance(a, ConcreteMeasure) and not a.lebesgue for a in args):
        combos = 1
        for a in args:
            combos *= max(len(a.atoms), 1)
        if combos <= _ATOM_COLLAPSE_LIMIT:
            out: dict[float, float] = {}

            def walk(i: int, values: list, weight: float):
                if weight == 0.0:
                    return
                if i == len(args):
                    y = prim.fn(*values)
                    out[y] = out.get(y, 0.0) + weight
                    return
                for atom in args[i].atoms:
                    walk(i + 1, values + [atom.location], weight * atom.weight)

            walk(0, [], 1.0)
            atoms = tuple(Atom(loc, w) for loc, w in sorted(out.items()) if w != 0.0)
            return ConcreteMeasure(atoms)
    return PushforwardMeasure(prim, args, outer_refine)
