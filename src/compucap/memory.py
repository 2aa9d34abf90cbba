"""Budgeted memory-configuration optimization.

A machine's instruction set splits into a fixed base (everything that is
not a memory access) and, per candidate memory kind, a bracket of access
classes whose multiplicity scales with the number of cells installed:
with R registers and n cells of a kind, an access class of per-cell count
m contributes R * m * n addressable instruction variants at its access
time.  Given a per-cell price for each kind and a total budget, the
design question is which cell counts maximize capacity.

At any fixed root X the characteristic sum is linear and increasing in
each cell count, so a continuous-relaxation optimum always sits at a
vertex of the budget simplex: the entire budget on one kind.
optimize_vertex compares exactly those pure allocations; optimize_grid
gives the exact answer over an integer grid.  Each solves only the
allocations that can still win or tie: a candidate is first decided,
where it can be, by one evaluation of log2 g below the best capacity so
far, and optimize_grid settles on one point where the relaxation bounds
every other (see the docstrings).  An allocation so decided is never
solved, so a root that cannot be certified there, the base's included,
refuses no design.

A problem checks and compiles every time once, when it is built, and
scales its budget and cell costs once to integers (problem.units), in
which the optimizers count cells, test what the budget affords and
price an allocation.  instantiate and the optimizers read the access
classes an allocation installs, each with its exact and float time, from
one table, problem.accesses.  An optimizer appends them, in
instantiate's order, to the base's columns (compiled once per problem,
kept on bound_base) and hands those to solve_compiled, the all-zero
allocation included, so each result is the one solve_capacity gives for
instantiate's set.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from pathlib import Path

from .model import (
    BoundClass,
    BoundInstructionSet,
    InstructionSet,
    ParameterBinding,
    TimeExpression,
    as_rational,
    bind,
    check_binding,
    check_container,
    check_ident,
    check_object,
    check_positive_time,
    instruction_set_from_object,
    is_count,
    load_json,
    parse_count,
    parse_time,
)
from .solver import (
    CapacityResult, Columns, bound_columns, root_below, solve_compiled, time_as_float, warm_slack,
)

_TIE_WIDTH = 1e-11
_MAX_GRID_POINTS = 1_000_000

_VERTEX_JUSTIFICATION = (
    "the characteristic sum grows with every cell count at any fixed root, "
    "so a continuous-relaxation optimum spends the whole budget on a single "
    "kind; compared each all-budget-to-one-kind allocation against none"
)


class ProblemError(ValueError):
    """A memory-design problem is malformed or inconsistent."""


@dataclass(frozen=True)
class AccessClass:
    """count_per_cell instructions of the given time for every installed cell."""

    count_per_cell: int
    time: TimeExpression

    def __post_init__(self):
        if not is_count(self.count_per_cell):
            raise ProblemError("access-class count must be >= 1")


@dataclass(frozen=True)
class MemoryKind:
    name: str
    cell_cost: Fraction
    access_classes: tuple[AccessClass, ...]

    def __post_init__(self):
        check_ident(self.name, "memory-kind name")
        object.__setattr__(self, "cell_cost", as_rational(self.cell_cost))
        object.__setattr__(self, "access_classes", tuple(self.access_classes))
        if self.cell_cost <= 0:
            raise ProblemError(f"kind {self.name!r}: cell_cost must be > 0")
        if not self.access_classes:
            raise ProblemError(f"kind {self.name!r} has no access classes")


@dataclass(frozen=True)
class MemoryDesignProblem:
    """Base instructions, candidate memory kinds, and a spending budget.

    bound_base is the base set, bound once under its share of the binding
    and compiled to its columns; accesses holds per kind one (kind/index,
    registers * count_per_cell, time, float time) entry per access class;
    units is (scale, budget, cell cost per kind) in integer units: scale
    is the lcm of the budget's and the costs' denominators, and the budget
    and each cost are scaled by it, so they divide and compare exactly as
    the rationals do.  The base is checked first, then each access time
    in declaration order, each evaluated once under the binding, checked
    positive and made a float, so the first fault declared is the one
    named.
    """

    base: InstructionSet
    registers: int
    kinds: tuple[MemoryKind, ...]
    budget: Fraction
    binding: ParameterBinding
    bound_base: BoundInstructionSet = field(init=False, compare=False, repr=False)
    accesses: tuple[tuple[tuple[str, int, Fraction, float], ...], ...] = field(
        init=False, compare=False, repr=False
    )
    units: tuple[int, int, tuple[int, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "budget", as_rational(self.budget))
        if not self.kinds:
            raise ProblemError("kinds must be non-empty")
        if not is_count(self.registers):
            raise ProblemError("registers must be >= 1")
        if self.budget < 0:
            raise ProblemError("budget must be >= 0")
        names = set()
        needed = set(self.base.parameters)
        for kind in self.kinds:
            if kind.name in names:
                raise ProblemError(f"duplicate kind name {kind.name!r}")
            names.add(kind.name)
            for ac in kind.access_classes:
                needed |= ac.time.parameters
        check_binding(needed, self.binding)
        base_values = {p: self.binding.values[p] for p in self.base.parameters}
        object.__setattr__(self, "bound_base", bind(self.base, ParameterBinding(base_values)))
        bound_columns(self.bound_base)
        values = self.binding.values

        def access(name: str, ac: AccessClass) -> tuple[str, int, Fraction, float]:
            time = check_positive_time(ac.time.evaluate(values), name)
            return name, self.registers * ac.count_per_cell, time, time_as_float(time, name)

        accesses = tuple(
            tuple(access(f"{kind.name}/{index}", ac) for index, ac in enumerate(kind.access_classes))
            for kind in self.kinds
        )
        object.__setattr__(self, "accesses", accesses)
        scale = math.lcm(self.budget.denominator, *(kind.cell_cost.denominator for kind in self.kinds))
        budget = self.budget.numerator * (scale // self.budget.denominator)
        costs = tuple(kind.cell_cost.numerator * (scale // kind.cell_cost.denominator) for kind in self.kinds)
        object.__setattr__(self, "units", (scale, budget, costs))


@dataclass(frozen=True)
class Allocation:
    """A chosen cell count per kind, its exact cost, and solved capacity."""

    cells: Mapping[str, int]
    total_cost: Fraction
    capacity: CapacityResult
    label: str = ""
    tie_with: tuple[str, ...] = ()
    justification: str = ""

    def __post_init__(self):
        object.__setattr__(self, "cells", dict(self.cells))


def instantiate(problem: MemoryDesignProblem, cells: Mapping[str, int]) -> BoundInstructionSet:
    """The full bound instruction set once `cells` of each kind are installed.

    Every access class of a kind with n cells becomes a plain class of
    count registers * count_per_cell * n; kinds at zero cells contribute
    nothing, so the all-zero allocation is exactly the base set.
    """
    known = {kind.name for kind in problem.kinds}
    for name, n in cells.items():
        if name not in known:
            raise ProblemError(f"unknown memory kind {name!r}")
        if not is_count(n, 0):
            raise ProblemError(f"cell count for {name!r} must be a non-negative integer")
    installed = (
        BoundClass(name, scale * n, time)
        for kind, accesses in zip(problem.kinds, problem.accesses)
        if (n := cells.get(kind.name, 0))
        for name, scale, time, _ in accesses
    )
    return BoundInstructionSet(problem.base.name, (*problem.bound_base.members, *installed))


def _allocation_columns(problem: MemoryDesignProblem, vec: tuple[int | Fraction, ...]) -> Columns:
    """compile_columns(instantiate(problem, cells).members) for the cells
    vector vec in kind-declaration order: the base's columns (bound_columns)
    and the log2 count and float time of each installed access class.  A
    cell count may also be a Fraction, as in a relaxed vertex: each log2
    count is the log2 of its numerator less that of its denominator (0.0
    for an int), as float() of a Fraction overflows past 2**1024.
    """
    installed = [(n, problem.accesses[k]) for k, n in enumerate(vec) if n]
    log2_counts, times, families = bound_columns(problem.bound_base)
    log2_counts = log2_counts + [
        math.log2(scale * n.numerator) - math.log2(n.denominator)
        for n, accesses in installed
        for _, scale, _, _ in accesses
    ]
    return log2_counts, times + [time for _, accesses in installed for _, _, _, time in accesses], families


def _allocation(problem: MemoryDesignProblem, vec: tuple[int, ...], **fields) -> Allocation:
    """The Allocation of cells vector vec: its cells by kind name and its exact cost."""
    scale, _, costs = problem.units
    return Allocation(
        cells={kind.name: n for kind, n in zip(problem.kinds, vec)},
        total_cost=Fraction(sum(map(mul, costs, vec)), scale),
        **fields,
    )


def _floor(capacity: float) -> float:
    """Where root_below reading True puts a root below capacity less the
    tie width: where a point cannot displace, or tie with, an incumbent of
    that capacity."""
    return capacity - _TIE_WIDTH - warm_slack(capacity)


def optimize_vertex(problem: MemoryDesignProblem) -> Allocation:
    """Pick the best pure allocation: the whole budget on one kind, or none.

    Candidates are compared in declaration order ("none" first); a later
    candidate must beat the incumbent by more than the tie width to
    displace it, so ties resolve to the earliest declared.  Candidates
    within the tie width of the winner are reported in tie_with.

    The first affordable kind's allocation is solved first.  "none" and
    each later candidate is then probed: log2 g is evaluated once at the
    incumbent's capacity less the tie width and warm_slack, and where it
    is negative the candidate's root lies below the incumbent's less the
    tie width, so it neither displaces the incumbent nor, as the
    incumbent only rises, ties with the winner; it is not solved.  Every
    other candidate is solved, so the result is that of solving every
    candidate, and a root that cannot be certified where one evaluation
    decides refuses no design.  Where the first solve is refused, every
    candidate is solved in declaration order, and the first fault met is
    the one named.
    """
    _, budget, costs = problem.units
    zero = (0,) * len(costs)
    labels, vecs = ["none"], [zero]
    for k, (kind, cost) in enumerate(zip(problem.kinds, costs)):
        if cost <= budget:
            labels.append(kind.name)
            vecs.append(zero[:k] + (budget // cost,) + zero[k + 1 :])
    first = min(1, len(vecs) - 1)  # the first affordable kind, or "none" where no kind is
    try:
        solved = {first: solve_compiled(_allocation_columns(problem, vecs[first]), problem.base.name)}
    except ValueError:
        for vec in vecs:
            solve_compiled(_allocation_columns(problem, vec), problem.base.name)
        raise
    best = first
    for i, vec in enumerate(vecs):
        if i == first:
            continue
        incumbent = solved[best].capacity_bits
        columns = _allocation_columns(problem, vec)
        if root_below(columns, _floor(incumbent)):
            continue
        cap = solved[i] = solve_compiled(columns, problem.base.name)
        if i < best:
            # "none", declared before the first kind, keeps the lead unless
            # that kind beats it by more than the tie width
            if not incumbent > cap.capacity_bits + _TIE_WIDTH:
                best = i
        elif cap.capacity_bits > incumbent + _TIE_WIDTH:
            best = i
    ties = tuple(
        labels[i]
        for i, cap in sorted(solved.items())
        if labels[i] != labels[best]
        and abs(cap.capacity_bits - solved[best].capacity_bits) <= _TIE_WIDTH
    )
    return _allocation(
        problem, vecs[best], capacity=solved[best], label=labels[best], tie_with=ties,
        justification=_VERTEX_JUSTIFICATION,
    )


def _grid_rows(problem: MemoryDesignProblem, step: int):
    """Yield every feasible cells vector on the step grid as rows (greatest
    point, number of points): a row of c points stands for the vectors that
    differ from its greatest point only in the last kind's count, which runs
    0, step, ..., (c - 1) * step.  Vectors come in kind-declaration order,
    depth-first, in the problem's integer units.  Each kind but the last
    extends every partial row (prefix, remaining budget) by its counts,
    one chained generator per kind, so a row costs no generator of its
    own."""
    _, budget, costs = problem.units
    *heads, last = costs

    def extend(rows, cost):
        return ((p + (n,), r - cost * n) for p, r in rows for n in range(0, r // cost + 1, step))

    rows = iter([((), budget)])
    for cost in heads:
        rows = extend(rows, cost)
    per_point = last * step  # the cost of step cells of the last kind
    return ((p + (r // per_point * step,), r // per_point + 1) for p, r in rows)


def _settled(
    problem: MemoryDesignProblem, step: int, last: tuple[int, ...], solved: dict
) -> tuple[int, ...] | None:
    """The point the walk of every grid point ends at, where a bound shows
    it without the walk, else None; see optimize_grid.  Each solve's result
    goes into solved."""
    _, budget, costs = problem.units
    zero = (0,) * len(costs)
    kinds = range(len(costs))
    affordable = [k for k in kinds if step * costs[k] <= budget]

    def capacity(vec):
        if vec not in solved:
            solved[vec] = solve_compiled(_allocation_columns(problem, vec), problem.base.name)
        return solved[vec].capacity_bits

    vertices = {}  # LP vertex -> its columns, built once however many y read them

    def below(y, fixed, spent_on):
        # whether log2 g reads negative at y at every LP vertex: fixed plus
        # the rest of the budget, in fractional cells, on one kind of spent_on
        rest = budget - sum(map(mul, costs, fixed))
        for k in spent_on:
            vertex = fixed[:k] + (Fraction(fixed[k] * costs[k] + rest, costs[k]),) + fixed[k + 1 :]
            if vertex not in vertices:
                vertices[vertex] = _allocation_columns(problem, vertex)
            if not root_below(vertices[vertex], y):
                return False
        return True

    def settles(c):
        cap = capacity(c)
        slack = 2 * warm_slack(cap)
        # for (b): c's counts before kind i, and step more cells of i
        exceeding = (c[:i] + (c[i] + step,) + zero[i + 1 :] for i in kinds)
        return below(cap + _TIE_WIDTH - slack, zero, affordable) and all(
            below(cap - _TIE_WIDTH - slack, fixed, [k for k in affordable if k >= i])
            for i, fixed in enumerate(exceeding)
            if sum(map(mul, costs, fixed)) <= budget
        )

    if settles(last):
        return last
    ends = []
    for k in affordable:
        end = list(zero)
        end[k] = n = budget // (step * costs[k]) * step
        end[-1] += (budget - n * costs[k]) // (step * costs[-1]) * step
        ends.append(tuple(end))
    best = max([last, *ends], key=lambda vec: (capacity(vec), vec))
    return best if best != last and settles(best) else None


def optimize_grid(problem: MemoryDesignProblem, step: int = 1) -> Allocation:
    """The best allocation on a step grid: every feasible allocation is
    counted, and at most the all-zero vector and one point per grid row
    are decided; the justification gives both numbers.

    Capacity ties (within the tie width) resolve to the lexicographically
    greatest cell vector in kind-declaration order, which keeps the result
    deterministic and agrees with optimize_vertex's preference for
    earlier-declared kinds.

    Solving every point would give the same answer.  _grid_rows yields
    the vectors in increasing lexicographic order, so under the tie rule
    a point displaces the incumbent exactly when its capacity is at least
    the incumbent's less the tie width: the floor.  Along a row (a fixed
    prefix, the last kind's count n rising) each access class of the last
    kind adds R * m * n * 2**(-tau * y) to g(y) at every y, so the root,
    and with it the capacity, never falls: once a point of a row is taken,
    each later one is, and the row's last point is taken exactly when any
    of its points would be.  Float rounding can put an earlier point of a
    row above the last one, but by under 1e-14 bits in every case
    measured, far inside the 1e-11 tie width.

    No vector is solved twice: each solve's result is kept in one table,
    vector -> CapacityResult, and the walk reads a vector found there
    instead of probing or solving it.  A refused solve keeps nothing, so
    the walk decides that vector afresh and names the refusal.

    The walk ends at a point C when (a) no allocation's capacity reaches
    C's plus the tie width, so C displaces whatever the walk held before
    it, and (b) every allocation after C in walk order lies below C's
    capacity less the tie width, so none displaces C.  The continuous
    relaxation shows both.  An allocation of n_k cells, costing at most
    the budget B, has at every y g = g_fixed + sum over k of (e_k c_k /
    B') (B' / c_k) a_k, where the e_k cells lie beyond a fixed part that
    leaves B' of the budget and a_k is one cell's share of g; the weights
    e_k c_k / B' sum to at most 1, so g is at most the largest g of an LP
    vertex: the fixed part plus B' / c_k fractional cells of one kind k.
    For (a) the fixed part is empty, and the LP vertices are the relaxed
    vertices, one per kind the grid installs.  An allocation after C
    first exceeds C at some kind i, by at least step cells, so for (b)
    the fixed part is C's counts before i plus C's count of i and step,
    and k runs over i and the later kinds the grid installs; an i that
    fixed part cannot afford has no such allocation.  Each LP vertex's
    columns are built once, and log2 g is evaluated on them once per
    check, at C's capacity plus the tie width for (a), less it for (b),
    each less twice warm_slack: one warm_slack covers a root certified
    above a point where root_below reads True, the other the rounding
    between a point's columns and an LP vertex's.  Where every value is
    negative, C is the answer and no other point is decided.

    C is first the last row's last point L, the greatest vector, where
    (b) holds with no evaluation: L is solved first.  Otherwise each
    kind's single-kind row end is solved: the last point of the row whose
    prefix buys only that kind, as many cells of it as the grid affords
    (for the last kind, the first row's last point).  C is then the point
    of greatest capacity among L and the row ends, the greater vector on
    a tie.  A ValueError in solving or bounding these, a solver's refusal,
    abandons the bound.  Where no C is shown, the all-zero vector is
    solved, as the full walk solves it first, and the rows are walked
    from the same table, naming every fault as they would without it.

    A row's last point is decided from below the floor.  log2 g is
    evaluated first at the floor less warm_slack, where that lies above
    0: as g falls, a negative value puts the point's root, as
    solve_compiled certifies it, below the floor, and that one evaluation
    decides a losing point.  Otherwise solve_compiled solves the point
    from the columns that evaluation read, so each decision and the
    result are those of solving every point.  A point decided by one
    evaluation or by the bound, the all-zero vector included, is not
    solved at all, so a root that cannot be certified there refuses no
    grid.
    """
    if not is_count(step):
        raise ProblemError(f"step must be a positive integer, got {step!r}")
    points = rows = 0
    for last, count in _grid_rows(problem, step):
        points += count
        rows += 1
        if points > _MAX_GRID_POINTS:
            raise ProblemError(f"grid exceeds {_MAX_GRID_POINTS} points")
    _, budget, costs = problem.units
    # each row decides one point; the first row's, of all-zero prefix, is
    # the all-zero vector itself unless the last kind affords step cells
    solves = rows + (step * costs[-1] <= budget)
    solved = {}
    try:
        best_vec = _settled(problem, step, last, solved)
    except ValueError:
        best_vec = None
    if best_vec is None:
        best_vec = (0,) * len(costs)
        if best_vec not in solved:
            solved[best_vec] = solve_compiled(_allocation_columns(problem, best_vec), problem.base.name)
        for vec, _ in _grid_rows(problem, step):
            best = solved[best_vec].capacity_bits
            cap = solved.get(vec)
            if cap is None:
                cols = _allocation_columns(problem, vec)
                if root_below(cols, _floor(best)):
                    continue
                cap = solved[vec] = solve_compiled(cols, problem.base.name)
            if cap.capacity_bits >= best - _TIE_WIDTH:
                best_vec = vec
    return _allocation(
        problem, best_vec, capacity=solved[best_vec], label="grid",
        justification=f"evaluated {points} feasible allocations on a step-{step} grid "
        f"by solving {solves}: capacity never falls as a cell is added, "
        "so each row's last point stands for its row",
    )


# --- problem file (JSON) parsing ---


def _parse_access(obj: object, where: str) -> AccessClass:
    check_object(obj, where, ProblemError, ("count", "time"))
    time = parse_time(obj["time"], f"{where} time", ProblemError)
    return AccessClass(parse_count(obj["count"], f"{where} count", ProblemError), time)


def _parse_kind(obj: object, index: int) -> MemoryKind:
    where = f"kinds[{index}]"
    check_object(obj, where, ProblemError, ("name", "cell_cost", "access_classes"))
    at = f"{where} access_classes"
    accesses = check_container(obj["access_classes"], list, at, ProblemError)
    return MemoryKind(
        name=obj["name"],
        cell_cost=obj["cell_cost"],
        access_classes=tuple(_parse_access(ac, f"{at}[{j}]") for j, ac in enumerate(accesses)),
    )


def parse_problem(
    text: str,
    base_dir: Path | None = None,
    params: Mapping[str, object] | None = None,
    read_base: Callable[[Path], str] | None = None,
) -> MemoryDesignProblem:
    """Parse a problem file; `base` may be inline model JSON or a file path.

    A path is resolved relative to base_dir (the problem file's own
    directory, when loaded from disk) and read by read_base(path), by
    default as UTF-8 text; a caller that records the files it reads passes
    its own reader.  params lies over the file's `parameters`: a value
    replaces the file's value of the same name, a new name is added, and
    the problem is built once on the merged values.
    """
    doc = load_json(text, "problem", ProblemError)
    check_object(
        doc, "problem file", ProblemError, ("base", "registers", "budget", "kinds"),
        ("parameters",),
    )
    base_obj = doc["base"]
    if isinstance(base_obj, str):
        path = (base_dir or Path.cwd()) / base_obj  # an absolute base_obj stands alone
        try:
            base_text = read_base(path) if read_base else path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ProblemError(f"cannot read base model {base_obj!r}: {exc}") from None
        base_obj = load_json(base_text, f"base model {base_obj!r}", ProblemError)
    base = instruction_set_from_object(base_obj)

    file_params = check_container(doc.get("parameters", {}), dict, "parameters", ProblemError)
    kinds = check_container(doc["kinds"], list, "kinds", ProblemError)
    return MemoryDesignProblem(
        base=base,
        registers=parse_count(doc["registers"], "registers", ProblemError),
        kinds=tuple(_parse_kind(k, i) for i, k in enumerate(kinds)),
        budget=doc["budget"],
        binding=ParameterBinding({**file_params, **(params or {})}),
    )
