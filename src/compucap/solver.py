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
the weights 2**(-tau * y).  Newton's method started at any y where
log2 g >= 0, such as y = 0, where log2 g = log2(total count) > 0,
therefore climbs monotonically toward y*: every tangent of a convex curve
lies below it, so in exact arithmetic no step passes the root.  Floats
round, so the result is certified by a sign change of log2 g across an
interval no wider than TOLERANCE, 1e-12, or one float spacing where y is
too large for that.  As g decreases, the sign of
log2 g at one point y tells whether y* lies below y; solve_compiled's
at_least uses that to refuse a root below a bound in one evaluation.

A bound set is compiled to floats once, on first use, as columns (see
compile_columns and bound_columns): a log2 count and a base time for
every member, and (index, step, terms) for each member of more than one
term.  One pass over the columns, member_points, gives every member's
log2 weight and mean time at y; the solve, the distribution, a family's
mean time in efficiency_from_distribution() and the memory optimizer all
evaluate through it.  The pass fixes each float operation and its order:
a member's log2 weight is (log2 count - time * y) + log2 of its closed
sum, its mean time is time + step * mean index, and the aggregate sums
weights and weight * mean in member order.  So a member's figures are
the same floats whichever caller asks and whatever members stand beside
it, and tests compare the pass with a per-member reference by ==, not by
a tolerance.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .model import BoundClass, BoundInstructionSet, BoundMember, total_count

_LN2 = math.log(2.0)
_MAX_ITERATIONS = 10_000
TOLERANCE = 1e-12  # widest certified bracket, in bits per time unit
_RESIDUAL_LIMIT = 1e-10
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


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
    """v / (e**v - 1) for v > 0, monotone decreasing."""
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
        # n * n overflows past 2**512 terms, where n * b (n * n * u) does not;
        # below that, (n * n - 1) * u keeps its rounding
        tail = (n * n - 1.0) * u if n * n != math.inf else n * b
        return log2_sum, (n - 1.0) / 2.0 - tail / 12.0
    return log2_sum, (_phi(u) - _phi(b)) / u


def time_as_float(value: Fraction, name: str) -> float:
    """A positive time (or step) as a normal float; ValueError naming `name`
    where floats cannot hold it at full precision (0.0, subnormal or inf)."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not _FLOAT_MIN <= result <= _FLOAT_MAX:
        raise ValueError(
            f"time of {name!r} lies outside the float range [{_FLOAT_MIN:.4g}, {_FLOAT_MAX:.4g}]"
        )
    return result


# (log2 counts, base times, [(index, step, terms) per family]); see compile_columns
Columns = tuple[list[float], list[float], list[tuple[int, float, int]]]


def compile_columns(members: Iterable[BoundMember]) -> Columns:
    """The members compiled to floats in order, so the first member that
    does not compile is the one named, and laid out as columns: log2
    count and base time, one entry per member, a class taken as one term,
    and (index, step, terms) for each member of more than one term; terms
    stays an exact int, as it may exceed the float range.  A one-term
    family converts its step, then evaluates as a class.  solve_compiled
    and member_points take these; neither changes them."""
    log2_counts: list[float] = []
    times: list[float] = []
    families: list[tuple[int, float, int]] = []
    for index, member in enumerate(members):
        if isinstance(member, BoundClass):
            log2_counts.append(math.log2(member.count))
            times.append(time_as_float(member.time, member.name))
            continue
        log2_counts.append(math.log2(member.count_per_term))
        times.append(time_as_float(member.time_base, member.name))
        step = time_as_float(member.step, member.name)
        if member.num_terms != 1:
            families.append((index, step, member.num_terms))
    return log2_counts, times, families


def bound_columns(iset: BoundInstructionSet) -> Columns:
    """compile_columns(iset.members), compiled on first use and kept on the
    set in an attribute outside its dataclass fields, so the set's ==,
    hash, repr and asdict do not see it.  A set that does not compile
    keeps nothing and raises again on the next call."""
    try:
        return iset._columns
    except AttributeError:
        columns = compile_columns(iset.members)
        object.__setattr__(iset, "_columns", columns)
        return columns


def member_points(columns: Columns, y: float) -> tuple[list[float], list[float]]:
    """Per member: log2 of its weight sum(count * 2**(-tau * y)) over its
    terms, and its mean tau under those weights.

    Every member's value starts as log2 count - time * y and its mean as
    its base time; a family then adds the log2 of its closed geometric
    sum to the value and step times its mean index to the mean.
    """
    log2_counts, times, families = columns
    values = [a - t * y for a, t in zip(log2_counts, times)]
    means = times
    if families:
        means = times.copy()
        for index, step, terms in families:
            log2_sum, mean_index = _geom(_LN2 * step * y, terms)
            values[index] += log2_sum
            means[index] += step * mean_index
    return values, means


def _log2_char(columns: Columns, y: float) -> tuple[float, float]:
    """Return (log2 g(y), d/dy log2 g(y)).

    For each member the slope of its log2 weight is minus its mean time,
    so the total slope is -E[tau] under the 2**(-tau*y) weighting.
    """
    values, means = member_points(columns, y)
    hi = max(values)
    if hi == -math.inf:
        # every t * y overflowed, so g underflows to 0; as y grows, the
        # member of least mean time sets the slope
        return hi, -min(means)
    weights = [2.0 ** (value - hi) for value in values]
    mean = sum(map(mul, weights, means))
    if mean != mean:
        # a weight that underflowed to 0 times an inf mean index (a huge
        # family far below the top member) is nan; that member adds nothing
        mean = sum(w * m for w, m in zip(weights, means) if w)
    # log2(1 + rest), not log2 of a rounded 1 + rest: where one member
    # dominates, the others' mass lies below the rounding of 1.  The top
    # weight is exactly 1; zeroing another weight of 1 leaves the same sum.
    weights[weights.index(1.0)] = 0.0
    rest = sum(weights)
    return hi + math.log1p(rest) / _LN2, -mean / (1.0 + rest)


def eval_characteristic(iset: BoundInstructionSet, y: float) -> float:
    """Evaluate g(y) = sum over instructions of 2**(-tau * y), y >= 0."""
    if y < 0:
        raise ValueError(f"y must be >= 0, got {y}")
    if y == 0.0:
        return _float(total_count(iset))
    log2_g = _log2_char(bound_columns(iset), y)[0]
    return 2.0 ** log2_g if log2_g < 1024.0 else math.inf


def _residual(log2_g: float) -> float:
    """|g - 1| recovered from log2 g; inf where g lies past the float range
    (a residual that large fails _RESIDUAL_LIMIT all the same)."""
    if log2_g >= 1023.0:
        return math.inf
    return abs(math.expm1(log2_g * _LN2))


def solve_capacity(iset: BoundInstructionSet) -> CapacityResult:
    """Find y* with g(y*) = 1; capacity_bits = y* = log2(X0).

    Checks the total count (one instruction carries no choice: capacity
    0), then hands the set's columns (bound_columns) to solve_compiled.
    """
    total = total_count(iset)
    if total < 1:
        raise ValueError("instruction set has no instructions")
    if total == 1:
        # g(0) = 1 already: a single instruction carries no choice.
        return CapacityResult(0.0, 0.0, 0.0, 0)
    return solve_compiled(bound_columns(iset), iset.name)


def solve_compiled(columns: Columns, name: str, at_least: float = 0.0) -> CapacityResult | None:
    """The root y* of g for compiled columns (see compile_columns) that hold
    at least two instructions; errors name the set `name`.

    log2 g is evaluated first at at_least, a finite y >= 0.  Where it is
    negative there, y* lies below at_least and the result is None, after
    that one evaluation; the default 0.0 never gives None, as log2 g(0) =
    log2(total count) >= 1.  Otherwise Newton steps on log2 g climb from
    at_least (see the module docstring)
    until a step is at most TOLERANCE/2 with |g - 1| <= 1e-10, or no
    longer moves y, or rounding carries it past the root.
    The root is then certified by a sign change, log2 g > 0 at the left
    end and <= 0 at the right, across y and its neighbour at distance
    TOLERANCE (or one float spacing, where y is too large for that);
    without one, Newton resumes from the neighbour.  Raises ValueError
    when the root is out of float range, its residual cannot reach 1e-10
    in floats, or no root is certified within _MAX_ITERATIONS evaluations.
    """
    y = at_least
    f, slope = _log2_char(columns, y)
    if f < 0.0:
        return None
    iterations = 1
    while iterations < _MAX_ITERATIONS:
        if f == 0.0:
            return CapacityResult(y, 0.0, 0.0, iterations)
        step = f / slope if slope else math.inf
        if not math.isfinite(y - step):
            raise ValueError(f"set {name!r}: the capacity lies outside the float range")
        if y - step != y:
            y -= step
            f, slope = _log2_char(columns, y)
            iterations += 1
            # f keeps its sign, as it must in exact arithmetic, unless
            # rounding carried the step past the root
            if (f > 0.0) == (step < 0.0) and (
                abs(step) > TOLERANCE / 2 or _residual(f) > _RESIDUAL_LIMIT
            ):
                continue
        # rounding y +- w moves it by at most ulp(y) more than w
        w = max(TOLERANCE - math.ulp(y), math.ulp(y))
        end = y + w if f > 0.0 else max(y - w, 0.0)
        f_end, slope_end = _log2_char(columns, end)
        iterations += 1
        if (f_end > 0.0) == (f > 0.0):
            y, f, slope = end, f_end, slope_end
            continue
        width = abs(end - y)
        if abs(f_end) < abs(f):
            y, f = end, f_end
        if _residual(f) > _RESIDUAL_LIMIT:
            raise ValueError(f"set {name!r}: residual above 1e-10 at float precision")
        return CapacityResult(y, _residual(f), width, iterations)
    raise ValueError(f"set {name!r}: no root found in {_MAX_ITERATIONS} iterations at float precision")
