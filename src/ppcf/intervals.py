"""Finite unions of real intervals with open/closed endpoints.

An ``IntervalSet`` is the only kind of measurable set the package works
with: a normalized, disjoint, sorted union of intervals (isolated points
are degenerate closed intervals).  Membership uses exact float
comparison, so Dirac-atom masses are exact.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """One piece of an IntervalSet.  ``lo == hi`` means an isolated point."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval piece: {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both ends")
        if self.lo == -INF and self.lo_closed:
            raise ValueError("-inf endpoint must be open")
        if self.hi == INF and self.hi_closed:
            raise ValueError("+inf endpoint must be open")

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def length(self) -> float:
        return self.hi - self.lo


def _piece(lo, hi, lo_closed=True, hi_closed=True) -> Interval | None:
    """Build a piece, returning None when it denotes the empty set."""
    if lo > hi:
        return None
    if lo == -INF:
        lo_closed = False
    if hi == INF:
        hi_closed = False
    if lo == hi and not (lo_closed and hi_closed):
        return None
    if lo == hi == INF or lo == hi == -INF:
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


class IntervalSet:
    """Normalized finite union of intervals and isolated points."""

    __slots__ = ("pieces",)

    def __init__(self, pieces=()):
        self.pieces: tuple[Interval, ...] = _normalize(pieces)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def point(x: float) -> "IntervalSet":
        return IntervalSet([Interval(x, x, True, True)])

    @staticmethod
    def closed(lo: float, hi: float) -> "IntervalSet":
        p = _piece(lo, hi, True, True)
        return IntervalSet([p] if p else [])

    @staticmethod
    def interval(lo, hi, lo_closed=True, hi_closed=True) -> "IntervalSet":
        p = _piece(lo, hi, lo_closed, hi_closed)
        return IntervalSet([p] if p else [])

    # -- queries ---------------------------------------------------------

    def contains(self, x: float) -> bool:
        for p in self.pieces:
            if p.contains(x):
                return True
        return False

    __contains__ = contains

    def count(self, ordered) -> int:
        """How many of the sorted floats `ordered` lie in the set, by bisection."""
        n = 0
        for p in self.pieces:
            lo = (bisect_left if p.lo_closed else bisect_right)(ordered, p.lo)
            n += (bisect_right if p.hi_closed else bisect_left)(ordered, p.hi) - lo
        return n

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def total_length(self) -> float:
        return sum(p.length() for p in self.pieces)

    def key(self):
        """Canonical hashable form, used as a memoization key."""
        return tuple((p.lo, p.hi, p.lo_closed, p.hi_closed) for p in self.pieces)

    # -- set algebra -----------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.pieces + other.pieces)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.pieces:
            for b in other.pieces:
                # later start wins; on a tie the stricter openness wins
                if a.lo > b.lo:
                    lo, lo_c = a.lo, a.lo_closed
                elif b.lo > a.lo:
                    lo, lo_c = b.lo, b.lo_closed
                else:
                    lo, lo_c = a.lo, a.lo_closed and b.lo_closed
                if a.hi < b.hi:
                    hi, hi_c = a.hi, a.hi_closed
                elif b.hi < a.hi:
                    hi, hi_c = b.hi, b.hi_closed
                else:
                    hi, hi_c = a.hi, a.hi_closed and b.hi_closed
                p = _piece(lo, hi, lo_c, hi_c)
                if p is not None:
                    out.append(p)
        return IntervalSet(out)

    def complement(self) -> "IntervalSet":
        out = []
        cursor = -INF
        cursor_closed = False  # whether `cursor` itself is still available
        for p in self.pieces:
            q = _piece(cursor, p.lo, cursor_closed, not p.lo_closed)
            if q is not None:
                out.append(q)
            cursor, cursor_closed = p.hi, not p.hi_closed
        q = _piece(cursor, INF, cursor_closed, False)
        if q is not None:
            out.append(q)
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def image(self, f, increasing: bool) -> "IntervalSet":
        """Image under a monotone map; an endpoint that overflows is opened."""
        if increasing:
            return IntervalSet(
                [_piece(f(p.lo), f(p.hi), p.lo_closed, p.hi_closed) for p in self.pieces]
            )
        return IntervalSet(
            [_piece(f(p.hi), f(p.lo), p.hi_closed, p.lo_closed) for p in self.pieces]
        )

    def shift(self, delta: float) -> "IntervalSet":
        if delta == 0.0:
            return self
        return self.image(lambda x: x + delta, True)

    def scale(self, c: float) -> "IntervalSet":
        """Image of the set under x -> c*x (c must be nonzero)."""
        if c == 0.0:
            raise ValueError("cannot scale an interval set by zero")
        return self.image(lambda x: x * c, c > 0)

    def divide(self, c: float) -> "IntervalSet":
        """Image of the set under x -> x/c (c must be nonzero)."""
        if c == 0.0:
            raise ValueError("cannot divide an interval set by zero")
        return self.image(lambda x: x / c, c > 0)

    def negate(self) -> "IntervalSet":
        return self.scale(-1.0)

    # -- dunder ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        return f"IntervalSet({format_interval_set(self)!r})"


def _normalize(pieces) -> tuple[Interval, ...]:
    ps = sorted(
        (p for p in pieces if p is not None),
        key=lambda p: (p.lo, not p.lo_closed, p.hi),
    )
    out: list[Interval] = []
    for p in ps:
        if not out:
            out.append(p)
            continue
        q = out[-1]
        # merge when p starts inside q or exactly where q stops being covered
        touches = p.lo < q.hi or (p.lo == q.hi and (p.lo_closed or q.hi_closed))
        if touches:
            if p.hi > q.hi:
                hi, hi_c = p.hi, p.hi_closed
            elif p.hi == q.hi:
                hi, hi_c = q.hi, q.hi_closed or p.hi_closed
            else:
                hi, hi_c = q.hi, q.hi_closed
            lo_c = q.lo_closed or (p.lo == q.lo and p.lo_closed)
            out[-1] = Interval(q.lo, hi, lo_c, hi_c)
        else:
            out.append(p)
    return tuple(out)


EMPTY = IntervalSet()
FULL_LINE = IntervalSet([Interval(-INF, INF, False, False)])


# -- text format ---------------------------------------------------------
#
# Grammar (shared with the CLI flags): pieces joined by "+" or the union
# sign, each piece one of  [a,b]  [a,b)  (a,b]  (a,b)  {c}  with a,b
# numeric or +-inf.

_PIECE_RE = re.compile(
    r"""\s*(?:
        (?P<lbr>[\[\(])\s*(?P<lo>[^,\s]+)\s*,\s*(?P<hi>[^\]\)\s]+)\s*(?P<rbr>[\]\)])
        | \{\s*(?P<pt>[^}\s]+)\s*\}
    )\s*""",
    re.VERBOSE,
)


def _parse_endpoint(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return INF
    if t in ("-inf", "-infinity"):
        return -INF
    return float(text)


def parse_interval_set(text: str) -> IntervalSet:
    """Parse ``"[a,b) + {c} + (d,inf)"`` (``∪`` also accepted as separator)."""
    if text.strip() == "{}":  # the empty set, as format_interval_set writes it
        return EMPTY
    # a separator follows a closing bracket, so "1e+20" and "+inf" stay whole
    parts = re.split(r"(?<=[\]\)}])\s*[+∪]", text)
    pieces = []
    for part in parts:
        if not part.strip():
            raise ValueError(f"empty piece in interval set: {text!r}")
        m = _PIECE_RE.fullmatch(part)
        if m is None:
            raise ValueError(f"cannot parse interval piece: {part.strip()!r}")
        if m.group("pt") is not None:
            x = _parse_endpoint(m.group("pt"))
            pieces.append(Interval(x, x, True, True))
        else:
            lo = _parse_endpoint(m.group("lo"))
            hi = _parse_endpoint(m.group("hi"))
            p = _piece(lo, hi, m.group("lbr") == "[", m.group("rbr") == "]")
            if p is None:
                raise ValueError(f"interval piece denotes the empty set: {part.strip()!r}")
            pieces.append(p)
    return IntervalSet(pieces)


def _fmt_num(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    s = repr(x)
    return s[:-2] if s.endswith(".0") else s


def format_interval_set(s: IntervalSet) -> str:
    if s.is_empty:
        return "{}"
    parts = []
    for p in s.pieces:
        if p.is_point:
            parts.append("{%s}" % _fmt_num(p.lo))
        else:
            lbr = "[" if p.lo_closed else "("
            rbr = "]" if p.hi_closed else ")"
            parts.append(f"{lbr}{_fmt_num(p.lo)},{_fmt_num(p.hi)}{rbr}")
    return " + ".join(parts)

