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
optimize_grid solves that point alone (see its docstring).  instantiate
and the optimizers take the access classes an allocation installs, as
BoundClasses, from one table, _installed.  An optimizer hands an
allocation that installs none to solve_capacity; otherwise the solver's
compile_columns compiles them and the optimizer appends them, in
instantiate's order, to the base's columns (compiled once per problem,
kept on bound_base), so each result is the one solve_capacity gives for
instantiate's set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional

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
    CapacityResult, bound_columns, check_tolerance, compile_columns, solve_capacity, solve_compiled,
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


def _installed(problem: MemoryDesignProblem, vec: tuple[int, ...]) -> list[BoundClass]:
    """A BoundClass (kind/index, registers * count_per_cell * n, time) for
    each access class that the cells vector vec (n per kind, in
    declaration order) installs, in declaration order, each time checked
    positive."""
    return [
        BoundClass(name, scale * n, check_positive_time(time, name))
        for n, accesses in zip(vec, problem.accesses)
        if n
        for name, scale, time in accesses
    ]


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
        if not isinstance(n, int) or n < 0:
            raise ProblemError(f"cell count for {name!r} must be a non-negative integer")
    vec = tuple(cells.get(kind.name, 0) for kind in problem.kinds)
    return BoundInstructionSet(problem.base.name, (*problem.bound_base.members, *_installed(problem, vec)))


def _allocation_solver(problem: MemoryDesignProblem, tolerance: float):
    """solve(vec), equal to solve_capacity(instantiate(problem, cells),
    tolerance) for the cells vector vec in kind-declaration order.

    A vector that installs nothing goes to solve_capacity on the base.
    Otherwise compile_columns compiles the classes _installed lists, and
    their columns follow the base's (bound_columns), so the base's
    families keep their indices.  The base compiles first, so the errors
    come in instantiate and solve_capacity's order: a time that is not
    positive, then a base member, then an access time.
    """
    check_tolerance(tolerance)

    def solve(vec: tuple[int, ...]) -> CapacityResult:
        installed = _installed(problem, vec)
        if not installed:
            return solve_capacity(problem.bound_base, tolerance)
        log2_counts, times, families = bound_columns(problem.bound_base)
        more_counts, more_times, _ = compile_columns(installed)
        columns = (log2_counts + more_counts, times + more_times, families)
        return solve_compiled(columns, problem.base.name, tolerance)

    return solve


def _allocation(problem: MemoryDesignProblem, vec: tuple[int, ...], **fields) -> Allocation:
    """The Allocation of cells vector vec: its cells by kind name and its exact cost."""
    return Allocation(
        cells={kind.name: n for kind, n in zip(problem.kinds, vec)},
        total_cost=sum((kind.cell_cost * n for kind, n in zip(problem.kinds, vec)), Fraction(0)),
        **fields,
    )


def optimize_vertex(
    problem: MemoryDesignProblem, tolerance: float = 1e-12
) -> Allocation:
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

    solve = _allocation_solver(problem, tolerance)
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


def optimize_grid(
    problem: MemoryDesignProblem, step: int = 1, tolerance: float = 1e-12
) -> Allocation:
    """The best allocation on a step grid: every feasible allocation is
    counted, and the all-zero vector and one point per grid row are
    solved; the justification gives both numbers.

    Capacity ties (within the tie width) resolve to the lexicographically
    greatest cell vector in kind-declaration order, which keeps the result
    deterministic and agrees with optimize_vertex's preference for
    earlier-declared kinds.

    Solving every point would give the same answer.  _grid_rows yields
    the vectors in increasing lexicographic order, so under the tie rule
    a point displaces the incumbent exactly when its capacity is at least
    the incumbent's less the tie width.  Along a row (a fixed prefix, the
    last kind's count n rising) each access class of the last kind adds
    R * m * n * 2**(-tau * y) to g(y) at every y, so the root, and with
    it the capacity, never falls: once a point of a row is taken, each
    later one is, and the row's last point is taken exactly when any of
    its points would be.  Float rounding can put an earlier point of a
    row above the last one, but by under 1e-14 bits in every case
    measured, far inside the 1e-11 tie width.  The all-zero vector is
    solved first, as the full walk solves it first, so the errors come
    in the same order: solve_capacity solves it on the base alone, and
    each kind is first installed by the same row as in the full walk.
    """
    if not isinstance(step, int) or step < 1:
        raise ProblemError(f"step must be a positive integer, got {step!r}")
    points = 0
    for _, top in _grid_rows(problem, step):
        points += top // step + 1
        if points > _MAX_GRID_POINTS:
            raise ProblemError(f"grid exceeds {_MAX_GRID_POINTS} points")
    solve = _allocation_solver(problem, tolerance)
    zero = (0,) * len(problem.kinds)
    best, best_vec = solve(zero), zero
    solves = 1
    for prefix, top in _grid_rows(problem, step):
        vec = prefix + (top - top % step,)
        if vec == zero:  # the first row holds the all-zero vector alone
            continue
        cap = solve(vec)
        solves += 1
        if cap.capacity_bits >= best.capacity_bits - _TIE_WIDTH:
            best, best_vec = cap, vec
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
    text: str, base_dir: Optional[Path] = None, params: Optional[Mapping[str, object]] = None
) -> MemoryDesignProblem:
    """Parse a problem file; `base` may be inline model JSON or a file path.

    A path is resolved relative to base_dir (the problem file's own
    directory, when loaded from disk).  params lies over the file's
    `parameters`: a value replaces the file's value of the same name, a
    new name is added, and the problem is built once on the merged values.
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
            base_text = path.read_text(encoding="utf-8")
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
