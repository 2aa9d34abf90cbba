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
gives the exact answer over an integer grid, deciding one point per row
and, where the relaxation bounds every allocation below the grid's last
point, that point alone (see its docstring).  A problem checks and
compiles every time once, when it is built.  instantiate and the
optimizers read the access classes an allocation installs, each with
its exact and float time, from one table, problem.accesses.  An
optimizer appends them, in instantiate's order, to the base's columns
(compiled once per problem, kept on bound_base) and hands those to
solve_compiled, the all-zero allocation included, so each result is the
one solve_capacity gives for instantiate's set.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
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
    registers * count_per_cell, time, float time) entry per access class.
    The base is checked first, then each access time in declaration order,
    each evaluated once under the binding, checked positive and made a
    float, so the first fault declared is the one named.
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
    return Allocation(
        cells={kind.name: n for kind, n in zip(problem.kinds, vec)},
        total_cost=sum((kind.cell_cost * n for kind, n in zip(problem.kinds, vec)), Fraction(0)),
        **fields,
    )


def optimize_vertex(problem: MemoryDesignProblem) -> Allocation:
    """Pick the best pure allocation: the whole budget on one kind, or none.

    Candidates are evaluated in declaration order ("none" first); a later
    candidate must beat the incumbent by more than the tie width to
    displace it, so ties resolve to the earliest declared.  Candidates
    within the tie width of the winner are reported in tie_with.
    """
    zero = (0,) * len(problem.kinds)
    solved = [("none", zero, solve_compiled(_allocation_columns(problem, zero), problem.base.name))]
    for k, kind in enumerate(problem.kinds):
        n = int(problem.budget // kind.cell_cost)
        if n > 0:
            vec = zero[:k] + (n,) + zero[k + 1 :]
            cap = solve_compiled(_allocation_columns(problem, vec), problem.base.name)
            solved.append((kind.name, vec, cap))

    best_label, best_vec, best_cap = solved[0]
    for label, vec, cap in solved[1:]:
        if cap.capacity_bits > best_cap.capacity_bits + _TIE_WIDTH:
            best_label, best_vec, best_cap = label, vec, cap
    ties = tuple(
        label
        for label, _, cap in solved
        if label != best_label
        and abs(cap.capacity_bits - best_cap.capacity_bits) <= _TIE_WIDTH
    )
    return _allocation(
        problem, best_vec, capacity=best_cap, label=best_label, tie_with=ties,
        justification=_VERTEX_JUSTIFICATION,
    )


def _grid_rows(problem: MemoryDesignProblem, step: int):
    """Yield every feasible cells vector on the step grid as rows (greatest
    point, number of points): a row of c points stands for the vectors that
    differ from its greatest point only in the last kind's count, which runs
    0, step, ..., (c - 1) * step.  Vectors come in kind-declaration order,
    depth-first.  The budget and cell costs are scaled by the lcm of their
    denominators, to integers that divide exactly as the rationals do.
    Each kind but the last extends every partial row (prefix, remaining
    budget) by its counts, one chained generator per kind, so a row costs
    no generator of its own."""
    scale = math.lcm(problem.budget.denominator, *(k.cell_cost.denominator for k in problem.kinds))
    *heads, last = [int(k.cell_cost * scale) for k in problem.kinds]

    def extend(rows, cost):
        return ((p + (n,), r - cost * n) for p, r in rows for n in range(0, r // cost + 1, step))

    rows = iter([((), int(problem.budget * scale))])
    for cost in heads:
        rows = extend(rows, cost)
    per_point = last * step  # the scaled cost of step cells of the last kind
    return ((p + (r // per_point * step,), r // per_point + 1) for p, r in rows)


def optimize_grid(problem: MemoryDesignProblem, step: int = 1) -> Allocation:
    """The best allocation on a step grid: every feasible allocation is
    counted, and the all-zero vector and one point per grid row are
    decided; the justification gives both numbers.

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

    The all-zero vector, the base's columns alone, is solved first, as the
    full walk solves it first.  The last row's last point L, the greatest
    vector, is solved next, and the continuous relaxation bounds every
    other point.  For each kind k the grid installs, the relaxed vertex k
    is the base plus the fractional budget / cell_cost_k cells of k.  An
    allocation of n_k cells, costing at most the budget B, has at every y
    g = g_base + sum over k of (n_k c_k / B) (B / c_k) a_k, where a_k is
    one cell's share of g; the weights n_k c_k / B sum to at most 1, so g
    is at most the largest relaxed vertex's g.  log2 g of each relaxed
    vertex is evaluated once, at L's capacity plus the tie width less
    twice warm_slack, where that lies above 0: one warm_slack covers a
    root certified above a point where root_below reads True, the other
    the rounding between a point's columns and a relaxed vertex's.  Where
    every value is negative, each point's root, as solve_compiled
    certifies it, lies below L's capacity plus the tie width, so under
    the tie rule L displaces whatever the walk held before it and, as the
    last point, is the answer: the rows before it are decided by the
    bound.  Otherwise the rows are walked, as below.  A ValueError in
    solving or bounding L, a solver's refusal, abandons the bound, and
    the walk then names every fault as it would without it.

    A row's last point is decided from below the floor.  log2 g is
    evaluated first at the floor less warm_slack, where that lies above
    0: as g falls, a negative value puts the point's root, as
    solve_compiled certifies it, below the floor, and that one evaluation
    decides a losing point.  Otherwise solve_compiled solves the point
    from the columns that evaluation read, so each decision and the
    result are those of solving every point.  A point decided by one
    evaluation or by the bound is not solved at all, so a root that
    cannot be certified there refuses no grid.
    """
    if not is_count(step):
        raise ProblemError(f"step must be a positive integer, got {step!r}")
    points = rows = 0
    for last, count in _grid_rows(problem, step):
        points += count
        rows += 1
        if points > _MAX_GRID_POINTS:
            raise ProblemError(f"grid exceeds {_MAX_GRID_POINTS} points")
    # each row decides one point; the first row's, of all-zero prefix, is
    # the all-zero vector itself unless the last kind affords step cells
    solves = rows + (step * problem.kinds[-1].cell_cost <= problem.budget)
    zero = (0,) * len(problem.kinds)
    solved = {zero: solve_compiled(_allocation_columns(problem, zero), problem.base.name)}
    best_vec = zero
    try:
        if last not in solved:
            solved[last] = solve_compiled(_allocation_columns(problem, last), problem.base.name)
        y = solved[last].capacity_bits + _TIE_WIDTH - 2 * warm_slack(solved[last].capacity_bits)
        bounded = all(
            root_below(
                _allocation_columns(problem, zero[:k] + (problem.budget / kind.cell_cost,) + zero[k + 1 :]), y
            )
            for k, kind in enumerate(problem.kinds)
            if step * kind.cell_cost <= problem.budget
        )
    except ValueError:
        bounded = False
    if bounded:
        best_vec = last
    else:
        for vec, _ in _grid_rows(problem, step):
            best = solved[best_vec].capacity_bits
            cap = solved.get(vec)
            if cap is None:
                cols = _allocation_columns(problem, vec)
                if root_below(cols, best - _TIE_WIDTH - warm_slack(best)):
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
