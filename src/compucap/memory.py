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
gives the exact answer over an integer grid.  As the sum increases with
every cell count, so do its root and the capacity: on a grid row, where
only the last kind's count varies, no point beats the row's last one, so
optimize_grid decides that point alone: as g falls, one evaluation of
log2 g just below the incumbent's capacity shows a point that loses, and
only a point that may win is solved (see its docstring).  instantiate
and the optimizers read the access classes an allocation installs from
one table, problem.accesses.  An optimizer hands an allocation that
installs none to solve_capacity; otherwise it appends them, in
instantiate's order, to the base's columns (compiled once per problem,
kept on bound_base), so each result is the one solve_capacity gives for
instantiate's set.
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
    load_json,
    parse_count,
    parse_time,
)
from .solver import (
    TOLERANCE, CapacityResult, bound_columns, solve_capacity, solve_compiled, time_as_float,
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
        if not isinstance(self.count_per_cell, int) or self.count_per_cell < 1:
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

    bound_base is the base set, bound once under its share of the binding;
    accesses holds per kind one (kind/index, registers * count_per_cell,
    time) entry per access class, its time evaluated once under the binding
    and checked positive only when a cell of the kind is installed.
    """

    base: InstructionSet
    registers: int
    kinds: tuple[MemoryKind, ...]
    budget: Fraction
    binding: ParameterBinding
    bound_base: BoundInstructionSet = field(init=False, compare=False, repr=False)
    accesses: tuple[tuple[tuple[str, int, Fraction], ...], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "budget", as_rational(self.budget))
        if not self.kinds:
            raise ProblemError("kinds must be non-empty")
        if not isinstance(self.registers, int) or self.registers < 1:
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
        values = self.binding.values
        accesses = tuple(
            tuple(
                (f"{kind.name}/{index}", self.registers * ac.count_per_cell, ac.time.evaluate(values))
                for index, ac in enumerate(kind.access_classes)
            )
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
    nothing, so the all-zero allocation is exactly the base set.  Each
    installed access time is checked positive, in declaration order.
    """
    known = {kind.name for kind in problem.kinds}
    for name, n in cells.items():
        if name not in known:
            raise ProblemError(f"unknown memory kind {name!r}")
        if not isinstance(n, int) or n < 0:
            raise ProblemError(f"cell count for {name!r} must be a non-negative integer")
    installed = (
        BoundClass(name, scale * n, check_positive_time(time, name))
        for kind, accesses in zip(problem.kinds, problem.accesses)
        if (n := cells.get(kind.name, 0))
        for name, scale, time in accesses
    )
    return BoundInstructionSet(problem.base.name, (*problem.bound_base.members, *installed))


def _allocation_solver(problem: MemoryDesignProblem):
    """solve(vec), equal to solve_capacity(instantiate(problem, cells)) for
    the cells vector vec in kind-declaration order, and
    solve(vec, at_least), which hands at_least to solve_compiled: None
    where the root lies below at_least, else the root climbed to from
    there.

    A vector that installs nothing goes to solve_capacity on the base,
    at_least aside.
    Otherwise each installed access class adds log2 of its count and its
    float time to the base's columns (bound_columns), as compile_columns
    would compile its BoundClass, so the base's families keep their
    indices.  A kind's times become floats the first time it is installed
    and are kept per solver.  The errors come in instantiate and
    solve_capacity's order: a time that is not positive, then a base
    member, then an access time.
    """
    kind_times: dict[int, list[float]] = {}  # kind index -> float access times

    def solve(vec: tuple[int, ...], at_least: float = 0.0) -> CapacityResult | None:
        kinds = [k for k, n in enumerate(vec) if n]
        if not kinds:
            return solve_capacity(problem.bound_base)
        new = [k for k in kinds if k not in kind_times]
        for k in new:
            for name, _, time in problem.accesses[k]:
                check_positive_time(time, name)
        log2_counts, times, families = bound_columns(problem.bound_base)
        for k in new:
            kind_times[k] = [time_as_float(time, name) for name, _, time in problem.accesses[k]]
        log2_counts = log2_counts + [
            math.log2(scale * vec[k]) for k in kinds for _, scale, _ in problem.accesses[k]
        ]
        times = times + [time for k in kinds for time in kind_times[k]]
        return solve_compiled((log2_counts, times, families), problem.base.name, at_least)

    return solve


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
    candidates = [("none", zero)]
    for k, kind in enumerate(problem.kinds):
        n = int(problem.budget // kind.cell_cost)
        if n > 0:
            candidates.append((kind.name, zero[:k] + (n,) + zero[k + 1 :]))

    solve = _allocation_solver(problem)
    solved = [(label, vec, solve(vec)) for label, vec in candidates]

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
    """Yield every feasible cells vector on the step grid as rows (prefix,
    top): a row stands for the vectors prefix + (n,), for n in
    range(0, top + 1, step).  Vectors come in kind-declaration order,
    depth-first.  The budget and cell costs are scaled by the lcm of their
    denominators, to integers that divide exactly as the rationals do.
    The level above the last yields the rows itself, so a row costs no
    generator of its own."""
    scale = math.lcm(problem.budget.denominator, *(k.cell_cost.denominator for k in problem.kinds))
    budget = int(problem.budget * scale)
    costs = [int(k.cell_cost * scale) for k in problem.kinds]
    *heads, last = costs
    if not heads:
        yield (), budget // last
        return

    def rec(prefix: tuple[int, ...], remaining: int):
        cost = costs[len(prefix)]
        counts = range(0, remaining // cost + 1, step)
        if len(prefix) + 1 == len(heads):
            for n in counts:
                yield prefix + (n,), (remaining - cost * n) // last
        else:
            for n in counts:
                yield from rec(prefix + (n,), remaining - cost * n)

    yield from rec((), budget)


def _warm_slack(y: float) -> float:
    """How far apart two roots of one set near y may lie when solve_compiled
    certifies them from different starts.  Each lies within its bracket,
    at most max(TOLERANCE, ulp(y)) wide and rounded by up to half an ulp,
    of a float sign change of log2 g, and rounding log2 g's terms spreads
    those sign changes over a few ulps of y: so 2 * TOLERANCE + 3 * ulp(y)
    plus that spread.  The bound allows 13 ulps for the spread, which
    covered every case measured."""
    return 2 * TOLERANCE + 16 * math.ulp(y)


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
    measured, far inside the 1e-11 tie width.  The all-zero vector is
    solved first, as the full walk solves it first, so the errors come
    in the same order: solve_capacity solves it on the base alone, and
    each kind is first installed by the same row as in the full walk.

    A row's last point is decided from below the floor.  The capacity
    compared is the one solve_capacity gives, a climb from y = 0; call it
    cold.  A climb from another start is warm, and lies within
    _warm_slack of the cold one.  The incumbent's value is cold or warm,
    so the cold floor lies within its slack (0 when cold) of the floor
    computed from it.  log2 g is evaluated first at that floor less the
    incumbent's slack and one more _warm_slack (at least 0): as g falls,
    a negative value puts every sign change of log2 g, and so the point's
    cold capacity, below the cold floor, and that one evaluation decides
    a losing point.  Otherwise the point climbs from there, where log2
    g >= 0, to a warm root.  When the warm root lies within the two
    slacks of the floor, the incumbent and the point are solved from 0
    (each at most once) and their cold values decide, by the rule above.
    The winner, when its value is warm, is solved from 0 at the end, so
    the result is the one solve_capacity gives for instantiate's set.  A
    warm climb that fails (a float edge can stall Newton from one start
    and not from another) gives way to the cold one, which then decides.
    So the grid is refused only where solving every point would be; a
    point decided by one evaluation is not solved at all, so a root that
    cannot be certified there refuses no grid.
    """
    if isinstance(step, bool) or not isinstance(step, int) or step < 1:
        raise ProblemError(f"step must be a positive integer, got {step!r}")
    points = 0
    for _, top in _grid_rows(problem, step):
        points += top // step + 1
        if points > _MAX_GRID_POINTS:
            raise ProblemError(f"grid exceeds {_MAX_GRID_POINTS} points")
    solve = _allocation_solver(problem)
    zero = (0,) * len(problem.kinds)
    best, best_vec, best_slack = solve(zero), zero, 0.0
    solves = 1
    for prefix, top in _grid_rows(problem, step):
        vec = prefix + (top - top % step,)
        if vec == zero:  # the first row holds the all-zero vector alone
            continue
        solves += 1
        floor = best.capacity_bits - _TIE_WIDTH
        at_least = max(floor - best_slack - _warm_slack(best.capacity_bits), 0.0)
        try:
            cap = solve(vec, at_least)
        except ValueError:
            cap, at_least = solve(vec), 0.0
        if cap is None:
            continue
        slack = _warm_slack(cap.capacity_bits) if at_least else 0.0
        if abs(cap.capacity_bits - floor) <= best_slack + slack:
            if best_slack:
                best, best_slack = solve(best_vec), 0.0
                floor = best.capacity_bits - _TIE_WIDTH
            if slack:
                cap, slack = solve(vec), 0.0
        if cap.capacity_bits >= floor:
            best, best_vec, best_slack = cap, vec, slack
    if best_slack:
        best = solve(best_vec)
    return _allocation(
        problem, best_vec, capacity=best, label="grid",
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
        path = Path(base_obj)
        if not path.is_absolute():
            path = (base_dir or Path.cwd()) / path
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
