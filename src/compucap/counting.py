"""Exact counting of instruction sequences by total execution time.

N(T) is the number of distinct instruction sequences whose execution
times sum to exactly T.  With every instruction time a positive integer,
N obeys the linear recurrence

    N(T) = sum over times t of  m(t) * N(T - t),      N(0) = 1,

where m(t) is how many instructions take time t.  Computed with exact
big integers: N grows geometrically (its growth rate is the capacity),
so fixed-width arithmetic would overflow almost immediately.  This is a
desk-scale verifier for small models, not a tool for full-size sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BoundInstructionSet, brief_int, is_count

_MAX_TIME = 100_000
_MAX_PAIRS = 1_000_000


class CountingError(ValueError):
    """The set or limits make exact counting impossible.

    When times are rational but not integral, suggested_scale holds the
    factor that would rescale every time to an integer (changing the time
    unit of any capacity reported against the rescaled model).
    """

    def __init__(self, message: str, suggested_scale: int | None = None):
        super().__init__(message)
        self.suggested_scale = suggested_scale


class UnreachableTimeError(ValueError):
    """No instruction sequence has the requested total time."""

    def __init__(self, time: int):
        super().__init__(f"no sequence executes in exactly time {time}")
        self.time = time


@dataclass(frozen=True)
class CountTable:
    """N(0..max_time) as exact integers; N(0) = 1 counts the empty sequence."""

    max_time: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.max_time + 1:
            raise ValueError("counts must cover 0..max_time")
        if self.counts[0] != 1:
            raise ValueError("N(0) must be 1")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    def count(self, time: int) -> int:
        if not (is_count(time, 0) and time <= self.max_time):
            raise ValueError(f"time {time!r} outside table range 0..{self.max_time}")
        return self.counts[time]


def _multiplicities(iset: BoundInstructionSet, max_time: int) -> dict[int, int]:
    """Total instruction multiplicity per integer time value <= max_time."""
    denominators = {}  # denominator -> the first member that has it
    for m in iset.members:
        denominators.setdefault(m.time_base.denominator, m.name)
        if m.num_terms > 1:
            denominators.setdefault(m.step.denominator, m.name)
    scale = math.lcm(*denominators)
    if scale != 1:
        brief = brief_int(scale)
        message = (
            f"counting needs integer times; multiplying every time by {brief} "
            "would make them integers"
        )
        if brief.isdigit():  # printed in full: at most 30 digits
            message += f" (and divide the resulting capacity estimate's time unit by {brief})"
        else:  # abbreviated: name the member whose denominator makes the scale long
            largest = max(denominators)
            message += (
                f"; the time of {denominators[largest]!r} has the denominator "
                f"{brief_int(largest)}"
            )
        raise CountingError(message, suggested_scale=scale)
    mult: dict[int, int] = {}
    pairs = 0
    for m in iset.members:
        first, step = int(m.time_base), int(m.step)
        for index in range(m.num_terms):
            t = first + index * step
            if t > max_time:
                break
            mult[t] = mult.get(t, 0) + m.count_per_term
            pairs += 1
        if pairs > _MAX_PAIRS:
            raise CountingError(
                f"more than {_MAX_PAIRS} (member, time) terms at or below max_time"
            )
    return mult


def count_sequences(iset: BoundInstructionSet, max_time: int) -> CountTable:
    """Fill N(0..max_time) exactly via the recurrence.

    Instructions slower than max_time cannot appear in any counted
    sequence and are ignored.  Rational times are rejected rather than
    silently rescaled (see CountingError.suggested_scale).
    """
    if not is_count(max_time, 0):
        raise ValueError(f"max_time must be an int >= 0, got {max_time!r}")
    if max_time > _MAX_TIME:
        raise CountingError(f"max_time {max_time} exceeds the limit {_MAX_TIME}")
    mult = _multiplicities(iset, max_time)
    items = sorted(mult.items())
    counts = [0] * (max_time + 1)
    counts[0] = 1
    for total in range(1, max_time + 1):
        acc = 0
        for t, m in items:
            if t > total:
                break
            acc += m * counts[total - t]
        counts[total] = acc
    return CountTable(max_time=max_time, counts=tuple(counts))


def capacity_estimate(table: CountTable, time: int) -> float:
    """Finite-time growth-rate estimate log2(N(T)) / T in bits per time unit.

    Approaches the solved capacity from a bounded gap as T grows; raises
    UnreachableTimeError when N(T) = 0 (there is nothing to estimate).
    """
    if not (is_count(time) and time <= table.max_time):
        raise ValueError(f"time must be an int in 1..{table.max_time}, got {time!r}")
    n = table.counts[time]
    if n == 0:
        raise UnreachableTimeError(time)
    return math.log2(n) / time
