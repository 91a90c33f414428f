"""Finite unions of real intervals with open/closed endpoints.

An ``IntervalSet`` is the only kind of measurable set the package works
with: a normalized, disjoint, sorted union of intervals (isolated points
are degenerate closed intervals).  Membership uses exact float
comparison, so Dirac-atom masses are exact.

A piece is a plain tuple ``(lo, hi, lo_closed, hi_closed)`` with
``lo <= hi``, infinite ends open and an isolated point (``lo == hi``)
closed at both ends.  Only ``_piece`` builds one; other modules only
unpack ``IntervalSet.pieces``.  A set hashes and compares by its pieces,
so it is its own memoization key.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right

INF = math.inf


def _piece(lo, hi, lo_closed=True, hi_closed=True):
    """The piece ``(lo, hi, lo_closed, hi_closed)``, or None when it
    denotes the empty set.  Raises on a NaN end; opens an infinite end."""
    if lo != lo or hi != hi:
        raise ValueError("interval endpoints must not be NaN")
    if lo > hi:
        return None
    if lo == -INF:
        lo_closed = False
    if hi == INF:
        hi_closed = False
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return (lo, hi, lo_closed, hi_closed)


def _point(x):
    """The piece {x}; x must be finite."""
    if not math.isfinite(x):
        raise ValueError(f"an isolated point must be finite, not {x!r}")
    return _piece(x, x)


class IntervalSet:
    """Normalized finite union of intervals and isolated points."""

    __slots__ = ("pieces",)

    def __init__(self, pieces=()):
        self.pieces: tuple[tuple, ...] = _normalize(pieces)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def point(x: float) -> "IntervalSet":
        return IntervalSet([_point(x)])

    @staticmethod
    def closed(lo: float, hi: float) -> "IntervalSet":
        return IntervalSet([_piece(lo, hi)])

    @staticmethod
    def interval(lo, hi, lo_closed=True, hi_closed=True) -> "IntervalSet":
        return IntervalSet([_piece(lo, hi, lo_closed, hi_closed)])

    # -- queries ---------------------------------------------------------

    def contains(self, x: float) -> bool:
        for lo, hi, lo_closed, hi_closed in self.pieces:
            if not (x < lo or x > hi or x == lo and not lo_closed or x == hi and not hi_closed):
                return True
        return False

    __contains__ = contains

    def count(self, ordered) -> int:
        """How many of the sorted floats `ordered` lie in the set, by bisection."""
        n = 0
        for lo, hi, lo_closed, hi_closed in self.pieces:
            start = (bisect_left if lo_closed else bisect_right)(ordered, lo)
            n += (bisect_right if hi_closed else bisect_left)(ordered, hi) - start
        return n

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi, _, _ in self.pieces)

    # -- set algebra -----------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.pieces + other.pieces)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a_lo, a_hi, a_lo_c, a_hi_c in self.pieces:
            for b_lo, b_hi, b_lo_c, b_hi_c in other.pieces:
                # later start wins; on a tie the stricter openness wins
                if a_lo > b_lo:
                    lo, lo_c = a_lo, a_lo_c
                elif b_lo > a_lo:
                    lo, lo_c = b_lo, b_lo_c
                else:
                    lo, lo_c = a_lo, a_lo_c and b_lo_c
                if a_hi < b_hi:
                    hi, hi_c = a_hi, a_hi_c
                elif b_hi < a_hi:
                    hi, hi_c = b_hi, b_hi_c
                else:
                    hi, hi_c = a_hi, a_hi_c and b_hi_c
                out.append(_piece(lo, hi, lo_c, hi_c))
        return IntervalSet(out)

    def complement(self) -> "IntervalSet":
        out = []
        cursor = -INF
        cursor_closed = False  # whether `cursor` itself is still available
        for lo, hi, lo_closed, hi_closed in self.pieces:
            out.append(_piece(cursor, lo, cursor_closed, not lo_closed))
            cursor, cursor_closed = hi, not hi_closed
        out.append(_piece(cursor, INF, cursor_closed, False))
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def image(self, f, increasing: bool) -> "IntervalSet":
        """Image under a monotone map; an endpoint that overflows is opened."""
        if increasing:
            return IntervalSet([_piece(f(lo), f(hi), lo_c, hi_c)
                                for lo, hi, lo_c, hi_c in self.pieces])
        return IntervalSet([_piece(f(hi), f(lo), hi_c, lo_c)
                            for lo, hi, lo_c, hi_c in self.pieces])

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


def _normalize(pieces) -> tuple[tuple, ...]:
    ps = sorted(
        (p for p in pieces if p is not None),
        key=lambda p: (p[0], not p[2], p[1]),
    )
    out: list[tuple] = []
    for p in ps:
        if not out:
            out.append(p)
            continue
        q_lo, q_hi, q_lo_c, q_hi_c = out[-1]
        p_lo, p_hi, p_lo_c, p_hi_c = p
        # merge when p starts inside q or exactly where q stops being covered
        if p_lo < q_hi or (p_lo == q_hi and (p_lo_c or q_hi_c)):
            if p_hi > q_hi:
                hi, hi_c = p_hi, p_hi_c
            elif p_hi == q_hi:
                hi, hi_c = q_hi, q_hi_c or p_hi_c
            else:
                hi, hi_c = q_hi, q_hi_c
            out[-1] = _piece(q_lo, hi, q_lo_c or (p_lo == q_lo and p_lo_c), hi_c)
        else:
            out.append(p)
    return tuple(out)


EMPTY = IntervalSet()
FULL_LINE = IntervalSet([_piece(-INF, INF)])


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
            pieces.append(_point(_parse_endpoint(m.group("pt"))))
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
    for lo, hi, lo_closed, hi_closed in s.pieces:
        if lo == hi:
            parts.append("{%s}" % _fmt_num(lo))
        else:
            lbr = "[" if lo_closed else "("
            rbr = "]" if hi_closed else ")"
            parts.append(f"{lbr}{_fmt_num(lo)},{_fmt_num(hi)}{rbr}")
    return " + ".join(parts)
