"""Instruction distributions, empirical entropy, and efficiency.

The capacity-achieving way to use an instruction set draws instructions
i.i.d. with probability 2**(-tau(x) * y*) each, where y* is the solved
capacity; under that distribution the entropy produced per unit of
execution time equals the capacity, and no other distribution does better.

Real workloads are measured instead: a trace of executed instruction
symbols yields plug-in entropy estimates of increasing order, and the
efficiency of the observed process is entropy per mean instruction time.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice

from .model import BoundClass, BoundInstructionSet, BoundMember, brief_rational, decimal_fraction, is_ident
from .solver import CapacityResult, bound_columns, compile_columns, member_points, solve_capacity, time_as_float

_MASS_SLACK = 1e-10
# a token of more characters is quoted in a message by its ends (_quote)
_QUOTE_CHARS = 60
# counting k-grams costs time and memory of about length * (order + 1)**2
# (25 ms and 5 MB per 10**6 on a 2-vCPU host); past this bound it is refused
_MAX_KGRAM_WORK = 25_000_000
# split_trace splits a trace in chunks of about this many characters, each
# cut at a character \s matches: exactly the ones str.split() splits on
_TRACE_CHUNK = 1 << 16
_SPACE = re.compile(r"\s")


class DistributionError(ValueError):
    """A probability assignment is inconsistent with the instruction set."""


class TraceError(ValueError):
    """A trace is malformed or does not match the instruction set."""


@dataclass(frozen=True)
class InstructionDistribution:
    """Probability mass per member (families carry their aggregate mass).

    When log2_x0 is set, each individual instruction of time tau holds
    probability 2**(-tau * log2_x0); the member masses are the per-count
    (and, for families, per-term) totals of that rule.
    """

    masses: Mapping[str, float]
    log2_x0: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "masses", dict(self.masses))
        total = 0.0
        for name, mass in self.masses.items():
            if not mass >= 0.0:
                raise DistributionError(f"mass of {name!r} is negative: {mass}")
            total += mass
        if abs(total - 1.0) > _MASS_SLACK:
            raise DistributionError(f"masses sum to {total!r}, not 1")

    def mass(self, name: str) -> float:
        return self.masses.get(name, 0.0)

    def instruction_probability(self, time: float | Fraction) -> float:
        """Per-individual-instruction probability at the given time."""
        if self.log2_x0 is None:
            raise DistributionError("distribution carries no per-instruction rule")
        return 2.0 ** (-float(time) * self.log2_x0)


def optimal_distribution(
    iset: BoundInstructionSet, cap: CapacityResult
) -> InstructionDistribution:
    """The capacity-achieving distribution at the solved root.

    Class mass is count * 2**(-tau * y*); a family's mass is the closed
    geometric total over its terms.  The masses sum to 1 up to the solver
    residual, since their sum is exactly the characteristic value g(y*).
    """
    y = cap.capacity_bits
    log2_weights, _ = member_points(bound_columns(iset), y)
    masses = {m.name: 2.0 ** w for m, w in zip(iset.members, log2_weights)}
    return InstructionDistribution(masses=masses, log2_x0=y)


# --- traces and empirical statistics ---


def _quote(token: str) -> str:
    """repr(token), or past _QUOTE_CHARS characters the repr of its first
    40 and last 10 joined by "...", so that an error line stays short."""
    if len(token) > _QUOTE_CHARS:
        token = f"{token[:40]}...{token[-10:]}"
    return repr(token)


def _canonical_token(token: str) -> tuple[str, Fraction | None]:
    """The canonical symbol of a trace token, `name` or `name@time` with the
    time in lowest terms, and its parsed time (None for a bare name)."""
    name, sep, anno = token.partition("@")
    if not is_ident(name):
        raise TraceError(f"invalid trace token {_quote(token)}")
    if not sep:
        return name, None
    try:
        time = decimal_fraction(anno)
        # the exponent bound still lets through times of a few more digits
        # than str() converts
        symbol = f"{name}@{time}"
    except (ValueError, ZeroDivisionError):
        raise TraceError(f"invalid time annotation in {_quote(token)}") from None
    if time <= 0:
        raise TraceError(f"time annotation must be positive in {_quote(token)}")
    return symbol, time


def split_trace(text: str) -> Iterator[str]:
    """The tokens of text.split(), made one chunk of about _TRACE_CHUNK
    characters at a time, each chunk cut at whitespace so that no token is
    cut: only one chunk's token strings are held at once."""
    return chain.from_iterable(map(str.split, _chunks(text)))


def _chunks(text: str):
    """text in consecutive pieces of at least _TRACE_CHUNK characters (the
    last may be shorter), each but the last ending before a whitespace
    character."""
    start = 0
    while start < len(text):
        cut = _SPACE.search(text, start + _TRACE_CHUNK)
        end = cut.start() if cut else len(text)
        yield text[start:end]
        start = end


class _Spellings(dict):
    """token -> resolve(token), filled on first use: a token found here
    costs one dict lookup, and resolve runs once per distinct spelling, in
    first-use order, so its first error is the first bad token's."""

    __slots__ = ("resolve",)

    def __init__(self, resolve: Callable[[str], str]):
        self.resolve = resolve

    def __missing__(self, token: str) -> str:
        symbol = self[token] = self.resolve(token)
        return symbol


def parse_trace(text: str) -> tuple[str, ...]:
    """Split a trace file into canonical symbol tokens.

    Tokens are whitespace-separated, each `name` or `name@time` with a
    positive rational time ("29", "1.5", and "3/2" all work).  Equal times
    written differently canonicalize to the same token; an error names the first bad one.
    The tokens are those of text.split(), read in one pass over
    split_trace(text), so only one chunk's token strings are held at once;
    each distinct spelling is parsed once.
    """
    spellings = _Spellings(lambda token: _canonical_token(token)[0])
    return tuple(map(spellings.__getitem__, split_trace(text)))


def _member_index(iset: BoundInstructionSet) -> dict[str, BoundMember]:
    """Name -> member; of equal names the first wins."""
    return {m.name: m for m in reversed(iset.members)}


def _token_time(member: BoundMember, token: str, time: Fraction | None) -> Fraction:
    """The time of `token`, which names `member` and is annotated `time` (None if bare)."""
    if isinstance(member, BoundClass):
        if time is not None and time != member.time:
            raise TraceError(
                f"{_quote(token)}: class {member.name!r} executes in time "
                f"{brief_rational(member.time)}, not {brief_rational(time)}"
            )
        return member.time
    if time is None:
        raise TraceError(
            f"symbol {member.name!r} is a family; annotate its time as {member.name}@time"
        )
    index = (time - member.time_base) / member.step
    if index.denominator != 1 or not 0 <= index < member.num_terms:
        raise TraceError(
            f"{_quote(token)}: time {brief_rational(time)} is not one of the family's terms"
        )
    return time


@dataclass(frozen=True)
class TraceStatistics:
    """Overlapping k-gram occurrence counts from an instruction stream.

    Windows wrap around the end of the trace, so every order has exactly
    `length` windows.  The wrap keeps the empirical gram distributions
    consistent under shifts (each (k+1)-gram count marginalizes exactly to
    the k-gram counts), which is what guarantees the order-n entropy
    estimates never increase with n.
    """

    alphabet: tuple[str, ...]
    length: int
    max_order: int
    kgram_counts: Mapping[int, Mapping[tuple[str, ...], int]]

    def __post_init__(self):
        for order in range(self.max_order + 1):
            counts = self.kgram_counts.get(order)
            if counts is None:
                raise TraceError(f"missing counts for order {order}")
            if sum(counts.values()) != self.length:
                raise TraceError(f"order-{order} counts do not cover the trace")

    @classmethod
    def from_symbols(cls, symbols: Sequence[str], max_order: int) -> "TraceStatistics":
        """k-gram counts at orders 0..max_order, read from `symbols` in place.

        The window at position i runs over the trace and on into its first
        max_order symbols again; the trace itself is never copied.  Checks
        the order, then the length, then the k-gram work bound.
        """
        if max_order < 0:
            raise TraceError(f"order must be >= 0, got {max_order}")
        n = len(symbols)
        if n < max_order + 1:
            raise TraceError(
                f"trace of length {n} is too short for order {max_order}"
            )
        if n * (max_order + 1) ** 2 > _MAX_KGRAM_WORK:
            raise TraceError(
                f"trace of length {n} at order {max_order} is past the k-gram bound: "
                f"length * (order + 1)^2 must be at most {_MAX_KGRAM_WORK:,}"
            )
        # count at the top order only, over windows read in place: the n -
        # max_order that fit in the trace, then the max_order that wrap,
        # read from a copy of its last and first max_order symbols.  With
        # wrapped windows each k-gram is the prefix of the (k+1)-gram at the
        # same position, so summing over the last symbol is exact and keeps
        # each order's first-occurrence key order
        top = Counter(zip(*(islice(symbols, i, None) for i in range(max_order + 1))))
        tail = [*symbols[n - max_order :], *symbols[:max_order]]
        top.update(zip(*(islice(tail, i, None) for i in range(max_order + 1))))
        counts = [top]
        for _ in range(max_order):
            lower = Counter()
            for gram, count in counts[-1].items():
                lower[gram[:-1]] += count
            counts.append(lower)
        kgram_counts = dict(enumerate(reversed(counts)))
        return cls(
            alphabet=tuple(sorted(gram[0] for gram in kgram_counts[0])),
            length=n,
            max_order=max_order,
            kgram_counts=kgram_counts,
        )


def entropy_order_n(stats: TraceStatistics, n: int) -> float:
    """Plug-in order-n entropy in bits per instruction.

    The empirical (n+1)-gram frequencies stand in for the true gram
    probabilities; unseen grams contribute nothing (0 * log 0 = 0).
    """
    if n < 0:
        raise TraceError(f"order must be >= 0, got {n}")
    if n > stats.max_order:
        raise TraceError(f"statistics were collected only up to order {stats.max_order}")
    if stats.length < n + 1:
        raise TraceError(f"trace of length {stats.length} is too short for order {n}")
    acc = 0.0
    for count in stats.kgram_counts[n].values():
        p = count / stats.length
        acc -= p * math.log2(p)
    return acc / (n + 1)


# --- efficiency ---


def efficiency_from_distribution(
    iset: BoundInstructionSet,
    dist: InstructionDistribution | Mapping[str, float],
    entropy_bits: float,
) -> float:
    """Entropy rate divided by mean instruction time, in bits per time unit.

    `dist` maps member names (or annotated `name@time` symbols) to
    probability mass; a family named without a time annotation needs the
    distribution's per-instruction rule to pin down its mean time.
    """
    if not 0 <= entropy_bits < math.inf:
        raise ValueError(f"entropy must be finite and >= 0, got {entropy_bits}")
    if not isinstance(dist, InstructionDistribution):
        dist = InstructionDistribution(masses=dist)
    members = _member_index(iset)
    mean_time = 0.0
    for token, mass in dist.masses.items():
        if mass == 0.0:
            continue
        name, sep, _ = token.partition("@")
        member = members.get(name)
        if member is None:
            raise DistributionError(f"unknown member {name!r} in distribution")
        # a malformed annotation raises TraceError
        time = _canonical_token(token)[1] if sep else None
        if sep or isinstance(member, BoundClass):
            time = time_as_float(_token_time(member, token, time), token)
        elif dist.log2_x0 is not None:
            time = member_points(compile_columns((member,)), dist.log2_x0)[1][0]
        else:
            raise DistributionError(
                f"family {name!r} has no single time; annotate the symbol "
                f"as {name}@time or supply a per-instruction rule"
            )
        mean_time += mass * time
    if mean_time <= 0.0:
        raise DistributionError("distribution has zero mean time")
    return entropy_bits / mean_time


@dataclass(frozen=True)
class OrderEstimate:
    order: int
    entropy_bits: float
    efficiency_bits: float
    utilization: float


@dataclass(frozen=True)
class TraceEfficiencyReport:
    """Per-order entropy/efficiency estimates for one observed trace."""

    length: int
    mean_time: float
    capacity_bits: float
    orders: tuple[OrderEstimate, ...] = field(default_factory=tuple)


def efficiency_from_trace(
    iset: BoundInstructionSet, symbols: Iterable[str], max_order: int = 1
) -> TraceEfficiencyReport:
    """Estimate entropy, efficiency, and utilization at orders 0..max_order.

    Mean instruction time always comes from the order-0 symbol
    frequencies; utilization is efficiency over the set's capacity, solved
    here.  A trace symbol names a member, not an individual instruction, so
    each occurrence also carries the choice among the member's `count`
    equally likely instructions; that adds frequency-weighted log2(count)
    bits to the entropy estimate at every order.  A TraceError names the
    first bad token in trace order, whatever is wrong with it; after that
    come an empty trace, then the order, length and k-gram work checks.
    `symbols` (raw tokens or parse_trace's) is read once, each token
    resolved as it is read, and only the resolved symbols are kept, so a
    lazy stream such as split_trace(text) never holds every token string
    at once.
    """
    members = _member_index(iset)
    # symbol -> (time, log2 of how many equally likely instructions it stands for)
    table = {}

    def resolve(token: str) -> str:
        symbol, time = _canonical_token(token)
        name = symbol.partition("@")[0]
        member = members.get(name)
        if member is None:
            raise TraceError(f"unknown instruction symbol {name!r}")
        time = _token_time(member, symbol, time)
        if isinstance(member, BoundClass):
            symbol = name  # `c` and `c@2` are one symbol when c executes in time 2
            count = member.count
        else:
            count = member.count_per_term
        table[symbol] = (time_as_float(time, symbol), math.log2(count))
        return symbol

    resolved = list(map(_Spellings(resolve).__getitem__, symbols))
    if not resolved:
        raise TraceError("trace is empty")
    stats = TraceStatistics.from_symbols(resolved, max_order)
    mean_time = within_member = 0
    for (symbol,), count in stats.kgram_counts[0].items():
        freq = count / stats.length
        time, bits = table[symbol]
        mean_time += freq * time
        within_member += freq * bits
    cap_bits = solve_capacity(iset).capacity_bits
    orders = []
    for order in range(max_order + 1):
        h = entropy_order_n(stats, order) + within_member
        eff = h / mean_time
        if cap_bits > 0.0:
            util = eff / cap_bits
        else:
            util = 0.0 if eff == 0.0 else math.inf
        orders.append(OrderEstimate(order, h, eff, util))
    return TraceEfficiencyReport(
        length=stats.length,
        mean_time=mean_time,
        capacity_bits=cap_bits,
        orders=tuple(orders),
    )
