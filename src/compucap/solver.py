"""Capacity of a bound instruction set.

An instruction set whose instructions x take positive times tau(x) has a
characteristic equation

    sum over instructions x of  X ** -tau(x)  =  1,

whose largest real root X0 determines the capacity log2(X0), in bits per
time unit: the exponential growth rate of the number of distinct
instruction sequences executable per unit of time.

Substituting X = 2**y turns the left side into

    g(y) = sum_x 2 ** (-tau(x) * y),

which is strictly decreasing for y >= 0 with g(0) equal to the total
instruction count and g(y) -> 0, so the root y* = log2(X0) is unique.
All evaluation happens in the log2 domain with a max-shifted exponent sum:
member counts like 2**28 and roots near 2**31 would otherwise push direct
powers of X out of float range.  Arithmetic-progression families use the
closed geometric form, never a term-by-term sum.

log2 g(y) is a log-sum-exp of functions affine in y (a family's closed
form sums one per term), so it is convex, and its slope is -E[tau] under
the weights 2**(-tau * y).  Newton's method started at y = 0, where
log2 g = log2(total count) > 0, therefore climbs monotonically toward y*:
every tangent of a convex curve lies below it, so in exact arithmetic no
step passes the root.  Floats round, so the result is certified by a sign
change of log2 g across an interval no wider than the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BoundClass, BoundInstructionSet, BoundMember, total_count

_LN2 = math.log(2.0)
_MAX_ITERATIONS = 10_000
_RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True)
class CapacityResult:
    """Solved root y* = log2(X0) plus solver diagnostics.

    capacity_bits is in bits per time unit; residual is |g(y*) - 1|;
    bracket_width is the width of the interval certified to hold the root.
    """

    capacity_bits: float
    residual: float
    bracket_width: float
    iterations: int


def _float(n: int) -> float:
    """n as a float, or inf once n has more bits than a float can hold."""
    return float(n) if n.bit_length() <= 1023 else math.inf


def _phi(v: float) -> float:
    """v / (e**v - 1) for v >= 0, continuous at 0, monotone decreasing."""
    if v == 0.0:
        return 1.0
    if v > 690.0:
        # e**v - 1 overflows; the quotient decays like v * e**-v (nan at inf).
        return 0.0 if v == math.inf else v * math.exp(-v)
    return v / math.expm1(v)


def _geom(u: float, terms: int) -> tuple[float, float]:
    """log2 of the geometric sum 1 + e**-u + ... + e**-(terms-1)u, u >= 0,
    and the expected index F under its weights e**-uF.

    The sum is computed as log((1 - e**-Mu) / (1 - e**-u)) via expm1,
    which stays accurate as u -> 0 where the naive ratio cancels
    catastrophically.  The mean index equals -d/du of the log sum; it is
    written as a difference of phi values, with a series fallback where
    that difference cancels.
    """
    n = _float(terms)
    if u == 0.0:
        return math.log2(terms), (n - 1.0) / 2.0
    b = u * n
    log2_sum = (math.log(-math.expm1(-b)) - math.log(-math.expm1(-u))) / _LN2
    if b < 1e-3:
        return log2_sum, (n - 1.0) / 2.0 - (n * n - 1.0) * u / 12.0
    return log2_sum, (_phi(u) - _phi(b)) / u


def _compile(member: BoundMember) -> tuple[float, float, float, int]:
    """(log2 count, base time, step, terms) in floats, a class as a one-term
    family; terms stays an exact int, as it may exceed the float range."""
    if isinstance(member, BoundClass):
        return math.log2(member.count), float(member.time), 0.0, 1
    return (
        math.log2(member.count_per_term),
        float(member.time_base),
        float(member.step),
        member.num_terms,
    )


def _member_at(member: tuple, y: float) -> tuple[float, float]:
    """(log2 of sum(count * 2**(-tau * y)) over the member's terms, mean tau
    under those weights) for a compiled member."""
    log2_count, time, step, terms = member
    if terms == 1:
        return log2_count - time * y, time
    log2_sum, mean_index = _geom(_LN2 * step * y, terms)
    return log2_count - time * y + log2_sum, time + step * mean_index


def _log2_char(members: list[tuple], y: float) -> tuple[float, float]:
    """Return (log2 g(y), d/dy log2 g(y)).

    For each member the slope of its log2 weight is minus its mean time,
    so the total slope is -E[tau] under the 2**(-tau*y) weighting.
    """
    points = [_member_at(m, y) for m in members]
    hi = max(value for value, _ in points)
    weights = [2.0 ** (value - hi) for value, _ in points]
    wsum = sum(weights)
    mean = sum(w * time for w, (_, time) in zip(weights, points)) / wsum
    return hi + math.log2(wsum), -mean


def member_log2_weight(member: BoundMember, y: float) -> float:
    """log2 of the member's aggregate weight sum(count * 2**(-tau * y))."""
    return _member_at(_compile(member), y)[0]


def member_mean_time(member: BoundMember, y: float) -> float:
    """Mean execution time within the member under 2**(-tau*y) weighting."""
    return _member_at(_compile(member), y)[1]


def eval_characteristic(iset: BoundInstructionSet, y: float) -> float:
    """Evaluate g(y) = sum over instructions of 2**(-tau * y), y >= 0."""
    if y < 0:
        raise ValueError(f"y must be >= 0, got {y}")
    if y == 0.0:
        return _float(total_count(iset))
    log2_g = _log2_char([_compile(m) for m in iset.members], y)[0]
    return 2.0 ** log2_g if log2_g < 1024.0 else math.inf


def _residual(log2_g: float) -> float:
    """|g - 1| recovered from log2 g."""
    return abs(math.expm1(log2_g * _LN2))


def solve_capacity(iset: BoundInstructionSet, tolerance: float = 1e-12) -> CapacityResult:
    """Find y* with g(y*) = 1; capacity_bits = y* = log2(X0).

    Newton steps on log2 g climb from y = 0 (see the module docstring)
    until a step is at most tolerance/2 with |g - 1| <= 1e-10, or no
    longer moves y, or rounding carries it past the root.
    The root is then certified by a sign change, log2 g > 0 at the left
    end and <= 0 at the right, across y and its neighbour at distance
    tolerance (or one float spacing, where y is too large for that);
    without one, Newton resumes from the neighbour.  tolerance must lie
    in [1e-13, 1e-6].  Raises ValueError when the root is out of float
    range or its residual cannot reach 1e-10 in floats.
    """
    if not 1e-13 <= tolerance <= 1e-6:
        raise ValueError(f"tolerance must be in [1e-13, 1e-6], got {tolerance}")
    total = total_count(iset)
    if total < 1:
        raise ValueError("instruction set has no instructions")
    if total == 1:
        # g(0) = 1 already: a single instruction carries no choice.
        return CapacityResult(0.0, 0.0, 0.0, 0)

    members = [_compile(m) for m in iset.members]
    y = 0.0
    f, slope = _log2_char(members, y)
    iterations = 1
    while iterations < _MAX_ITERATIONS:
        if f == 0.0:
            return CapacityResult(y, 0.0, 0.0, iterations)
        step = f / slope if slope else math.inf
        if not math.isfinite(step):
            raise ValueError(f"set {iset.name!r}: the capacity lies outside the float range")
        if y - step != y:
            y -= step
            f, slope = _log2_char(members, y)
            iterations += 1
            # f keeps its sign, as it must in exact arithmetic, unless
            # rounding carried the step past the root
            if (f > 0.0) == (step < 0.0) and (
                abs(step) > tolerance / 2 or _residual(f) > _RESIDUAL_LIMIT
            ):
                continue
        # rounding y +- w moves it by at most ulp(y) more than w
        w = max(tolerance - math.ulp(y), math.ulp(y))
        end = y + w if f > 0.0 else max(y - w, 0.0)
        f_end, slope_end = _log2_char(members, end)
        iterations += 1
        if (f_end > 0.0) == (f > 0.0):
            y, f, slope = end, f_end, slope_end
            continue
        width = abs(end - y)
        if abs(f_end) < abs(f):
            y, f = end, f_end
        if _residual(f) > _RESIDUAL_LIMIT:
            raise ValueError(f"set {iset.name!r}: residual above 1e-10 at float precision")
        return CapacityResult(y, _residual(f), width, iterations)
    raise RuntimeError("internal error: capacity solve did not converge")
