"""Capacity of a bound instruction set, and the distribution that achieves it.

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
log2 g >= 0 therefore climbs monotonically toward y*: every tangent of a
convex curve lies below it, so in exact arithmetic no step passes the
root.  g is at least any one member's weight, and a member's first term
alone weighs 1 at log2 count / time, so the largest of those values is
such a start (y = 0, where log2 g = log2(total count) > 0 for two or more
instructions, is another; one instruction has root 0).  Floats round, so
the result is certified by a sign change of log2 g across an interval no
wider than TOLERANCE, 1e-12, or one float spacing where y is too large
for that.  As g decreases, the sign of log2 g at one point y > 0 tells
whether y* lies below y; root_below makes that one evaluation.

A bound set is compiled to floats once, on first use, as columns (see
compile_columns and bound_columns): a log2 count and a base time for
every member, and (index, step, terms) for each member of more than one
term.  solve_compiled is the one solve: solve_capacity hands it a set's
columns, and the memory optimizer those of each allocation.  One pass
over the columns, member_points, gives every member's log2 weight and
mean time at y; the solve, optimal_distribution and a family's mean time
in efficiency_from_distribution() all evaluate through it.  The pass
fixes each float operation and its order: a member's log2 weight is
(log2 count - time * y) + log2 of its closed sum, its mean time is time
+ step * mean index, and the aggregate sums weights and weight * mean in
member order.  So a member's figures are the same floats whichever
caller asks and whatever members stand beside it, and tests compare the
pass with a per-member reference by ==, not by a tolerance.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, truediv

from .model import BoundClass, BoundInstructionSet, BoundMember, total_count

_LN2 = math.log(2.0)
_MAX_ITERATIONS = 10_000
TOLERANCE = 1e-12  # widest certified bracket, in bits per time unit
_RESIDUAL_LIMIT = 1e-10
_MASS_SLACK = 1e-10
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


def warm_slack(y: float) -> float:
    """A margin near y that covers two brackets, each at most
    max(TOLERANCE, ulp(y)) wide and rounded by up to half an ulp, plus the
    spread of log2 g's float sign changes, which was under 13 ulps of y in
    every case measured.  solve_compiled starts this far below the largest
    one-member root, and a root certified by solve_compiled lies at most
    this far above a point where root_below reads True."""
    return 2 * TOLERANCE + 16 * math.ulp(y)


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
    """n as a float, rounded to nearest, or inf where it rounds past the float range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _geom(u: float, n: float, terms: int) -> tuple[float, float]:
    """log2 of the geometric sum 1 + e**-u + ... + e**-(terms-1)u, u >= 0,
    and the expected index F under its weights e**-uF; n is _float(terms).

    The log is taken as log1p of the sum less its first term, e**-u *
    (1 - e**-(M-1)u) / (1 - e**-u), each factor through exp or expm1.  It
    keeps full precision where the sum nears 1 (u large) and as u -> 0,
    where the naive ratio cancels catastrophically; the logs of 1 - e**-Mu
    and 1 - e**-u apiece would each round at their own size.  The mean
    index equals -d/du of the log sum; it is written as a difference of phi
    values, with a series fallback where that difference cancels.
    """
    if u == 0.0:
        return math.log2(terms), (n - 1.0) / 2.0
    b = u * n
    # the sum less its first term, inf or nan only where u is subnormal or inf
    rest = math.exp(-u) * math.expm1(u - b) / math.expm1(-u)
    log_sum = math.log1p(rest) if rest < math.inf else math.log(-math.expm1(-b)) - math.log(-math.expm1(-u))
    log2_sum = log_sum / _LN2
    if b < 1e-3:
        # n * n overflows past 2**512 terms, where n * b (n * n * u) does not;
        # below that, (n * n - 1) * u keeps its rounding
        tail = (n * n - 1.0) * u if n * n != math.inf else n * b
        return log2_sum, (n - 1.0) / 2.0 - tail / 12.0
    # phi(v) = v / (e**v - 1), monotone decreasing; past 690 e**v - 1
    # overflows, and phi decays like v * e**-v (0 at inf)
    phi_u = u / math.expm1(u) if u <= 690.0 else 0.0 if u == math.inf else u * math.exp(-u)
    phi_b = b / math.expm1(b) if b <= 690.0 else 0.0 if b == math.inf else b * math.exp(-b)
    return log2_sum, (phi_u - phi_b) / u


def time_as_float(value: Fraction, name: str, what: str = "time") -> float:
    """A positive time (or step, what="step") as a normal float; ValueError
    naming what of `name` where floats cannot hold it at full precision
    (0.0, subnormal or inf)."""
    try:
        result = value.numerator / value.denominator  # float(value) without its Python-level call
    except OverflowError:
        result = math.inf
    except AttributeError:  # a float time in a hand-built bound set
        result = float(value)
    if not _FLOAT_MIN <= result <= _FLOAT_MAX:
        raise ValueError(
            f"{what} of {name!r} lies outside the float range [{_FLOAT_MIN:.4g}, {_FLOAT_MAX:.4g}]"
        )
    return result


# (log2 counts, base times, [(index, step, ln 2 * step, float terms, terms) per family])
Columns = tuple[list[float], list[float], list[tuple[int, float, float, float, int]]]


def compile_columns(members: Iterable[BoundMember]) -> Columns:
    """The members compiled to floats in order, so the first member that
    does not compile (a count below 1, or a time or step outside the float
    range) is the one named, and laid out as columns: log2 count and base
    time, one entry per member, a class taken as one term, and (index,
    step, ln 2 * step, float terms, terms) for each member of more than
    one term; terms stays an exact int, as it may exceed the float range.
    A one-term family's step enters no sum and is not compiled.
    solve_compiled and member_points take these; neither changes them."""
    log2_counts: list[float] = []
    times: list[float] = []
    families: list[tuple[int, float, float, float, int]] = []
    for index, member in enumerate(members):
        # a class test, not the one-term view's properties: through them 2,000
        # members compiled in 0.95 ms against 0.77 (medians, CPython 3.11, Xeon)
        family = not isinstance(member, BoundClass)
        time = member.time_base if family else member.time
        try:
            log2_counts.append(math.log2(member.count_per_term if family else member.count))
        except ValueError:  # an int count below 1, in a hand-built set: the parser refuses it first
            raise ValueError(f"count of {member.name!r} must be >= 1") from None
        times.append(time_as_float(time, member.name))
        if family and member.num_terms != 1:
            step = time_as_float(member.step, member.name, "step")
            families.append((index, step, _LN2 * step, _float(member.num_terms), member.num_terms))
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
    means = times.copy()
    for index, step, ln2_step, n, terms in families:
        log2_sum, mean_index = _geom(ln2_step * y, n, terms)
        values[index] += log2_sum
        means[index] += step * mean_index
    return values, means


class DistributionError(ValueError):
    """A probability assignment is inconsistent with the instruction set."""


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
        """Per-individual-instruction probability at the given time; a time
        past the float range gives the value the formula rounds to, 0.0
        (or 1.0 where log2_x0 is 0)."""
        if self.log2_x0 is None:
            raise DistributionError("distribution carries no per-instruction rule")
        try:
            exponent = -float(time) * self.log2_x0
        except OverflowError:
            exponent = -math.inf * self.log2_x0 if self.log2_x0 else 0.0
        return 2.0 ** exponent


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
    """Evaluate g(y) = sum over instructions of 2**(-tau * y), y >= 0.

    g never rises with y, so a value is capped at g(0), the total count
    rounded to a float: log2 g rounds up to 1024.0 where the count lies
    just below 2**1024, and 2**log2 g would read inf at a tiny y."""
    if not y >= 0:
        raise ValueError(f"y must be >= 0, got {y}")
    at_zero = _float(total_count(iset))
    if y == 0.0:
        return at_zero
    log2_g = _log2_char(bound_columns(iset), y)[0]
    return min(2.0 ** log2_g if log2_g < 1024.0 else math.inf, at_zero)


def _residual(log2_g: float) -> float:
    """|g - 1| recovered from log2 g; inf where g lies past the float range
    (a residual that large fails _RESIDUAL_LIMIT all the same)."""
    if log2_g >= 1023.0:
        return math.inf
    return abs(math.expm1(log2_g * _LN2))


def solve_capacity(iset: BoundInstructionSet) -> CapacityResult:
    """Find y* with g(y*) = 1; capacity_bits = y* = log2(X0): solve_compiled
    on the set's columns (bound_columns)."""
    return solve_compiled(bound_columns(iset), iset.name)


def root_below(columns: Columns, y: float) -> bool:
    """Whether log2 g is negative at a finite y, so that the root lies below
    y (within warm_slack of where it is certified): one evaluation, or none
    where y <= 0, as the root is never below 0."""
    return y > 0.0 and _log2_char(columns, y)[0] < 0.0


def solve_compiled(columns: Columns, name: str) -> CapacityResult:
    """The root y* of g for compiled columns (see compile_columns); errors
    name the set `name`.  Columns of no member are refused, and one member
    of log2 count 0.0 and one term is a single instruction, which carries
    no choice: capacity 0, found with no evaluation.

    The climb starts at the largest one-member root log2 count / time, a
    family's first term standing in for the family, less its warm_slack;
    at 0 where that start is not positive and finite, or where log2 g is
    negative there (rounding), and each start's evaluation counts as an
    iteration.  Newton steps on log2 g climb from the start (see the module
    docstring) until a step is at most TOLERANCE/2 with |g - 1| <= 1e-10,
    or no longer moves y, or rounding carries it past the root.  The root
    is then certified by a sign change, log2 g > 0 at the left end and
    <= 0 at the right, across y and its neighbour at distance TOLERANCE
    (or one float spacing, where y is too large for that); without one,
    Newton resumes from the neighbour.  Raises ValueError when the root is
    out of float range, its residual cannot reach 1e-10 in floats, or no
    root is certified within _MAX_ITERATIONS evaluations.
    """
    log2_counts, times, families = columns
    if not log2_counts:
        raise ValueError("instruction set has no instructions")
    if log2_counts == [0.0] and not families:
        # g(0) = 1 already
        return CapacityResult(0.0, 0.0, 0.0, 0)
    top = max(map(truediv, log2_counts, times))
    y = top - warm_slack(top)
    if not 0.0 < y < math.inf:
        y = 0.0
    f, slope = _log2_char(columns, y)
    iterations = 1
    if f < 0.0:
        y = 0.0
        f, slope = _log2_char(columns, y)
        iterations += 1
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
