"""The table of measurable primitives.

Every primitive is a total map on floats: partial math functions are
clamped (``log`` at or below 0 returns -MAXREAL, division by zero
returns 0, non-finite results saturate to +-MAXREAL).  Comparisons
return 1.0 / 0.0.

Where cheap, a primitive also knows its *preimage*: given all argument
slots but one fixed, the set of values for the free slot that lands the
result inside a target IntervalSet.  The denotational layer uses
preimages to turn pushforward-mass queries into exact interval masses
instead of quadrature over indicator integrands.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .intervals import EMPTY, FULL_LINE, IntervalSet, format_interval_set, parse_interval_set

MAXREAL = sys.float_info.max

# target at slot `i` given the other argument values:
PreimageFn = Callable[[int, list, IntervalSet], Optional[IntervalSet]]


@dataclass(frozen=True)
class Primitive:
    name: str
    arity: int
    fn: Callable[..., float]
    preimage: PreimageFn | None = None
    symbol: str | None = None  # infix surface syntax, if any

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


def _pre_add(i, fixed, target):
    c = fixed[1 - i]
    return target.shift(-c)


def _pre_sub(i, fixed, target):
    if i == 0:  # x - c in U
        return target.shift(fixed[1])
    # c - x in U  <=>  x in c - U
    return target.negate().shift(fixed[0])


def _pre_mul(i, fixed, target):
    c = fixed[1 - i]
    if c == 0.0:
        return FULL_LINE if target.contains(0.0) else EMPTY
    inv = 1.0 / c
    if math.isinf(inv):  # subnormal c: scaling by inf would make 0 * inf a NaN
        return target.divide(c)
    return target.scale(inv)


def _pre_div(i, fixed, target):
    if i != 0:
        return None  # denominator slot: not worth the case split
    c = fixed[1]
    if c == 0.0:  # x / 0 := 0
        return FULL_LINE if target.contains(0.0) else EMPTY
    return target.scale(c)


def _pre_eq(i, fixed, target):
    c = fixed[1 - i]
    return _boolean_preimage(IntervalSet.point(c), target)


def _pre_lt(i, fixed, target):
    c = fixed[1 - i]
    if i == 0:  # x < c
        true_set = IntervalSet.interval(-math.inf, c, False, False)
    else:  # c < x
        true_set = IntervalSet.interval(c, math.inf, False, False)
    return _boolean_preimage(true_set, target)


def _pre_le(i, fixed, target):
    c = fixed[1 - i]
    if i == 0:  # x <= c
        true_set = IntervalSet.interval(-math.inf, c, False, True)
    else:  # c <= x
        true_set = IntervalSet.interval(c, math.inf, True, False)
    return _boolean_preimage(true_set, target)


_BASE_TABLE = {
    p.name: p
    for p in [
        Primitive("add", 2, _add, _pre_add, symbol="+"),
        Primitive("sub", 2, _sub, _pre_sub, symbol="-"),
        Primitive("mul", 2, _mul, _pre_mul, symbol="*"),
        Primitive("div", 2, _div, _pre_div, symbol="/"),
        Primitive("eq", 2, _eq, _pre_eq, symbol="="),
        Primitive("lt", 2, _lt, _pre_lt, symbol="<"),
        Primitive("le", 2, _le, _pre_le, symbol="<="),
        Primitive("log", 1, _log),
        Primitive("neg_log", 1, _neg_log),
        Primitive("exp", 1, _exp),
        Primitive("sqrt", 1, _sqrt),
        Primitive("cos", 1, _cos),
    ]
}

CHI_PREFIX = "chi["


def chi_name(u: IntervalSet) -> str:
    return f"{CHI_PREFIX}{format_interval_set(u)}]"


def _make_chi(name: str, u: IntervalSet) -> Primitive:
    def fn(x):
        return 1.0 if u.contains(x) else 0.0

    def pre(i, fixed, target):
        return _boolean_preimage(u, target)

    return Primitive(name, 1, fn, pre)


class UnknownPrimitive(KeyError):
    pass


class PrimitiveTable:
    """Name -> Primitive, with chi[...] entries synthesized on demand."""

    def __init__(self, entries: dict[str, Primitive] | None = None):
        self._entries = dict(_BASE_TABLE if entries is None else entries)
        self._chi_cache: dict[str, Primitive] = {}

    def lookup(self, name: str) -> Primitive:
        p = self._entries.get(name)
        if p is not None:
            return p
        if name.startswith(CHI_PREFIX) and name.endswith("]"):
            p = self._chi_cache.get(name)
            if p is None:
                u = parse_interval_set(name[len(CHI_PREFIX):-1])
                p = _make_chi(name, u)
                self._chi_cache[name] = p
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
