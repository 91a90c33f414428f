"""The table of measurable primitives.

Every primitive is a total map on floats: partial math functions are
clamped (``log`` at or below 0 returns -MAXREAL, division by zero
returns 0, non-finite results saturate to +-MAXREAL).  Comparisons
return 1.0 / 0.0.

Every primitive in the table also knows its *preimage*
``preimage(slot, args, lo, hi, target)``: given all argument slots but
``slot`` fixed at ``args``, and ``[lo, hi]`` holding the values of the free
slot, the set of values for the free slot that lands the result inside
the target IntervalSet (it may reach past ``[lo, hi]``), or None where
there is none to give.  The denotational layer uses preimages to turn
pushforward-mass queries into exact interval masses instead of
quadrature over indicator integrands.  The preimages of ``log``,
``neg_log``, ``exp`` and ``sqrt`` include their clamped regions.  Only
``cos``, which is not monotone, reads the range: it inverts on each
monotone piece of a finite one.  ``range_image`` carries a range forward
through a chain of primitives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .intervals import EMPTY, FULL_LINE, IntervalSet, format_interval_set, parse_interval_set

MAXREAL = sys.float_info.max

# (slot, the other argument values, range of the slot, target) -> set of the slot:
PreimageFn = Callable[[int, list, float, float, IntervalSet], Optional[IntervalSet]]


@dataclass(frozen=True)
class Primitive:
    """A named total map: ``fn`` must take floats to finite floats.
    The machine and ``collect_outcomes``'s compiled replay both raise
    ``Numeral``'s error on a result outside +-MAXREAL."""

    name: str
    arity: int
    fn: Callable[..., float]
    preimage: PreimageFn | None = None

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("primitive arity must be >= 1")


def _finite(x: float) -> float:
    if math.isnan(x):
        return 0.0
    if x == math.inf:
        return MAXREAL
    if x == -math.inf:
        return -MAXREAL
    return x


# -- total versions of the arithmetic -----------------------------------


def _add(a, b):
    return _finite(a + b)


def _sub(a, b):
    return _finite(a - b)


def _mul(a, b):
    return _finite(a * b)


def _div(a, b):
    if b == 0.0:
        return 0.0
    return _finite(a / b)


def _eq(a, b):
    return 1.0 if a == b else 0.0


def _lt(a, b):
    return 1.0 if a < b else 0.0


def _le(a, b):
    return 1.0 if a <= b else 0.0


def _log(a):
    if a <= 0.0:
        return -MAXREAL
    return _finite(math.log(a))


def _neg_log(a):
    if a <= 0.0:
        return MAXREAL
    return _finite(-math.log(a))


def _exp(a):
    try:
        return _finite(math.exp(a))
    except OverflowError:
        return MAXREAL


def _sqrt(a):
    if a <= 0.0:
        return 0.0
    return _finite(math.sqrt(a))


def _cos(a):
    return math.cos(a)


# -- preimages -----------------------------------------------------------


def _boolean_preimage(true_set: IntervalSet, target: IntervalSet) -> IntervalSet:
    out = EMPTY
    if target.contains(1.0):
        out = out.union(true_set)
    if target.contains(0.0):
        out = out.union(true_set.complement())
    return out


_PAST_MAXREAL = IntervalSet.interval(MAXREAL, math.inf, False, False)
_PAST_MINUS_MAXREAL = IntervalSet.interval(-math.inf, -MAXREAL, False, False)


def _unsaturated(target: IntervalSet) -> IntervalSet:
    """The unclamped results y with ``_finite(y)`` in U: the ray past each
    of +-MAXREAL goes with its end.  U itself where each ray already does
    (only an end piece reaches past MAXREAL, and it then holds the ray)."""
    if not target.pieces:
        return target
    (first_lo, _, _, _), (_, last_hi, _, _) = target.pieces[0], target.pieces[-1]
    top, bottom = target.contains(MAXREAL), target.contains(-MAXREAL)
    if top != (last_hi == math.inf):
        target = target.union(_PAST_MAXREAL) if top else target.difference(_PAST_MAXREAL)
    if bottom != (first_lo == -math.inf):
        target = (target.union(_PAST_MINUS_MAXREAL) if bottom
                  else target.difference(_PAST_MINUS_MAXREAL))
    return target


def _pre_add(i, fixed, lo, hi, target):
    c = fixed[1 - i]
    return _unsaturated(target).shift(-c)


def _pre_sub(i, fixed, lo, hi, target):
    target = _unsaturated(target)
    if i == 0:  # x - c in U
        return target.shift(fixed[1])
    # c - x in U  <=>  x in c - U
    return target.negate().shift(fixed[0])


def _pre_mul(i, fixed, lo, hi, target):
    c = fixed[1 - i]
    if c == 0.0:
        return FULL_LINE if target.contains(0.0) else EMPTY
    inv = 1.0 / c
    if math.isinf(inv):  # subnormal c: scaling by inf would make 0 * inf a NaN
        return _unsaturated(target).divide(c)
    return _unsaturated(target).scale(inv)


def _pre_div(i, fixed, lo, hi, target):
    if i != 0:
        return None  # denominator slot: not worth the case split
    c = fixed[1]
    if c == 0.0:  # x / 0 := 0
        return FULL_LINE if target.contains(0.0) else EMPTY
    return _unsaturated(target).scale(c)


_POSITIVE = IntervalSet.interval(0.0, math.inf, False, False)
_NONPOSITIVE = IntervalSet.interval(-math.inf, 0.0, False, True)
# exp(x) underflows to 0 below the log of half the least subnormal
_EXP_ZERO = IntervalSet.interval(-math.inf, math.log(5e-324) - math.log(2.0), False, False)


def _exp_or_inf(u):
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _log_or_minus_inf(v):
    return math.log(v) if v > 0.0 else -math.inf


def _clamped(positive: IntervalSet, target: IntervalSet, clamp: float) -> IntervalSet:
    """The preimage on x > 0, plus x <= 0 where the clamped value lies in U."""
    positive = positive.intersect(_POSITIVE)
    return positive.union(_NONPOSITIVE) if target.contains(clamp) else positive


def _pre_log(i, fixed, lo, hi, target):
    return _clamped(target.image(_exp_or_inf, True), target, -MAXREAL)


def _pre_neg_log(i, fixed, lo, hi, target):
    return _clamped(target.image(lambda u: _exp_or_inf(-u), False), target, MAXREAL)


def _pre_sqrt(i, fixed, lo, hi, target):
    return _clamped(target.intersect(_POSITIVE).image(lambda v: v * v, True), target, 0.0)


def _pre_exp(i, fixed, lo, hi, target):
    # off the underflow, where exp is 0 whatever U's ends
    out = _unsaturated(target).intersect(_POSITIVE).image(_log_or_minus_inf, True)
    out = out.difference(_EXP_ZERO)
    if target.contains(0.0):
        out = out.union(_EXP_ZERO)
    return out


# cos_preimage splits the range of its argument into at most this many
# monotone pieces of length pi (256 pi needs 259).
_COS_MAX_PIECES = 4096
_COS_VALUES = IntervalSet.closed(-1.0, 1.0)


def cos_preimage(target: IntervalSet, lo: float, hi: float) -> IntervalSet | None:
    """{x : cos x in U} on [lo, hi], or None past _COS_MAX_PIECES pieces.

    cos falls on [k pi, (k+1) pi] for even k and rises for odd k; each
    piece inverts through acos.  A piece more on either side covers the
    rounding of the range's ends, and the set may reach past [lo, hi].
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    first, last = math.floor(lo / math.pi) - 1, math.floor(hi / math.pi) + 1
    if last - first + 1 > _COS_MAX_PIECES:
        return None
    values = target.intersect(_COS_VALUES)
    pieces = []
    for k in range(first, last + 1):
        if k % 2 == 0:
            start = k * math.pi
            piece = values.image(lambda v: start + math.acos(v), False)
        else:
            end = (k + 1) * math.pi
            piece = values.image(lambda v: end - math.acos(v), True)
        pieces.extend(piece.pieces)
    return IntervalSet(pieces)


def _pre_cos(i, fixed, lo, hi, target):
    return cos_preimage(target, lo, hi)


def _pre_eq(i, fixed, lo, hi, target):
    c = fixed[1 - i]
    return _boolean_preimage(IntervalSet.point(c), target)


def _pre_lt(i, fixed, lo, hi, target):
    c = fixed[1 - i]
    if i == 0:  # x < c
        true_set = IntervalSet.interval(-math.inf, c, False, False)
    else:  # c < x
        true_set = IntervalSet.interval(c, math.inf, False, False)
    return _boolean_preimage(true_set, target)


def _pre_le(i, fixed, lo, hi, target):
    c = fixed[1 - i]
    if i == 0:  # x <= c
        true_set = IntervalSet.interval(-math.inf, c, False, True)
    else:  # c <= x
        true_set = IntervalSet.interval(c, math.inf, True, False)
    return _boolean_preimage(true_set, target)


_BASE_TABLE = {
    p.name: p
    for p in [
        Primitive("add", 2, _add, _pre_add),
        Primitive("sub", 2, _sub, _pre_sub),
        Primitive("mul", 2, _mul, _pre_mul),
        Primitive("div", 2, _div, _pre_div),
        Primitive("eq", 2, _eq, _pre_eq),
        Primitive("lt", 2, _lt, _pre_lt),
        Primitive("le", 2, _le, _pre_le),
        Primitive("log", 1, _log, _pre_log),
        Primitive("neg_log", 1, _neg_log, _pre_neg_log),
        Primitive("exp", 1, _exp, _pre_exp),
        Primitive("sqrt", 1, _sqrt, _pre_sqrt),
        Primitive("cos", 1, _cos, _pre_cos),
    ]
}

# Value monotone in every argument slot that has a preimage (div: the
# numerator), so an interval of arguments maps into the hull of its ends'
# images; cos is the one primitive that is not.
_MONOTONE = frozenset({"add", "sub", "mul", "div", "lt", "le", "log", "neg_log", "exp", "sqrt"})


def range_image(prim: Primitive, slot: int, args: list, lo: float, hi: float):
    """An interval holding prim's values as argument `slot` ranges over
    [lo, hi], the other arguments fixed at `args`."""
    if prim.name not in _MONOTONE:
        return -math.inf, math.inf
    ends = [prim.fn(*[end if k == slot else a for k, a in enumerate(args)]) for end in (lo, hi)]
    return min(ends), max(ends)


CHI_PREFIX = "chi["


def chi_name(u: IntervalSet) -> str:
    return f"{CHI_PREFIX}{format_interval_set(u)}]"


def _make_chi(name: str, u: IntervalSet) -> Primitive:
    def fn(x):
        return 1.0 if u.contains(x) else 0.0

    def pre(i, fixed, lo, hi, target):
        return _boolean_preimage(u, target)

    return Primitive(name, 1, fn, pre)


class UnknownPrimitive(KeyError):
    pass


class PrimitiveTable:
    """Name -> Primitive; a chi[...] entry is built and stored on first lookup."""

    def __init__(self, entries: dict[str, Primitive] | None = None):
        self._entries = dict(_BASE_TABLE if entries is None else entries)

    def lookup(self, name: str) -> Primitive:
        p = self._entries.get(name)
        if p is not None:
            return p
        if name.startswith(CHI_PREFIX) and name.endswith("]"):
            p = self._entries[name] = _make_chi(name, parse_interval_set(name[len(CHI_PREFIX):-1]))
            return p
        raise UnknownPrimitive(name)

    def __contains__(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except (UnknownPrimitive, ValueError):
            return False

    def with_override(self, name: str, prim: Primitive) -> "PrimitiveTable":
        """Copy of the table with one entry replaced (fault injection)."""
        entries = dict(self._entries)
        entries[name] = prim
        return PrimitiveTable(entries)


DEFAULT_TABLE = PrimitiveTable()
