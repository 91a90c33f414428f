"""Counter-based uniform random stream.

The draw at logical counter c is a pure function of (seed, c) — the
SplitMix64 output function applied to ``seed + GAMMA * (c + 1)`` — so
any run can start mid-stream without generating its predecessors.
Monte-Carlo run i uses the stream offset i * 2**40, which keeps runs
disjoint for any realistic step budget.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

STREAM_SPACING = 1 << 40


def uniform_at(seed: int, counter: int) -> float:
    """The [0,1) draw at an absolute stream position."""
    z = (seed + _GAMMA * (counter + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


class RngStream:
    """Stateful view over the counter-based stream."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK64
        self.counter = counter & _MASK64

    def uniform(self) -> float:
        value = uniform_at(self.seed, self.counter)
        self.counter = (self.counter + 1) & _MASK64
        return value

    @staticmethod
    def for_run(seed: int, run_index: int) -> "RngStream":
        return RngStream(seed, run_index * STREAM_SPACING)
