import dataclasses
import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from compucap import (
    AccessClass,
    BindingError,
    BoundClass,
    BoundInstructionSet,
    CapacityResult,
    MemoryDesignProblem,
    MemoryKind,
    ParameterBinding,
    ProblemError,
    TimeExpression,
    data_path,
    instantiate,
    optimize_grid,
    optimize_vertex,
    parse_model,
    parse_problem,
    solve_capacity,
    total_count,
)
from compucap.memory import Allocation, _allocation_columns, _grid_rows
from compucap.solver import compile_columns, root_below, solve_compiled, warm_slack

# Pure-allocation capacities of the bundled two-kind example, solved
# independently at 60-digit precision: the cheap slow kind loses to the
# fast one by about 3.5e-8 bits per unit.
KIND1_CAPACITY = 31.1189411177462391
KIND2_CAPACITY = 31.1189410824738384

BASE_TWO = '{"name": "b", "classes": [{"name": "x", "count": 2, "time": {"base": 1}}]}'


def small_problem(budget, *kind_specs, registers=1, params=None) -> MemoryDesignProblem:
    kinds = tuple(
        MemoryKind(
            name,
            Fraction(cost),
            tuple(AccessClass(c, TimeExpression(base=t)) for c, t in accesses),
        )
        for name, cost, accesses in kind_specs
    )
    return MemoryDesignProblem(
        base=parse_model(BASE_TWO),
        registers=registers,
        kinds=kinds,
        budget=Fraction(budget),
        binding=ParameterBinding(params or {}),
    )


def test_instantiate_adds_scaled_access_classes():
    problem = small_problem(2, ("A", 1, [(2, 1)]))
    iset = instantiate(problem, {"A": 2})
    assert total_count(iset) == 6  # base 2 plus 1 * 2 * 2 accesses
    (added,) = [m for m in iset.members if m.name == "A/0"]
    assert added.count == 4
    assert added.time == 1


def test_instantiate_zero_cells_is_base():
    problem = small_problem(2, ("A", 1, [(2, 1)]))
    iset = instantiate(problem, {"A": 0})
    assert [m.name for m in iset.members] == ["x"]
    assert instantiate(problem, {}) == iset


def test_instantiate_register_scaling():
    # with S cells, R registers and an access bracket (m, tau) the added
    # class holds R * m * S instructions
    problem = parse_problem(data_path("memory-example.json").read_text())
    iset = instantiate(problem, {"kind1": 2**30})
    by_name = {m.name: m for m in iset.members}
    assert by_name["kind1/0"].count == 2**8 * 46 * 2**30
    assert by_name["kind1/1"].count == 2**8 * 2 * 2**30
    assert by_name["kind1/2"].count == 2**8 * 46 * 2**30
    assert by_name["kind1/0"].time == 1 + Fraction(6, 5)
    assert by_name["kind1/1"].time == 1 + 20 * Fraction(6, 5)
    assert by_name["kind1/2"].time == 2 + 2 * Fraction(6, 5)


def test_instantiate_validates_cells():
    problem = small_problem(2, ("A", 1, [(2, 1)]))
    with pytest.raises(ProblemError, match="unknown memory kind"):
        instantiate(problem, {"B": 1})
    with pytest.raises(ProblemError, match="non-negative"):
        instantiate(problem, {"A": -1})
    # a bool is an int, but not a cell count
    example = parse_problem(data_path("memory-example.json").read_text())
    for flag in (True, False):
        with pytest.raises(ProblemError, match="^cell count for 'kind1' must be a non-negative integer$"):
            instantiate(example, {"kind1": flag})


def test_problem_binding_must_match_referenced_parameters():
    kind = MemoryKind(
        "A", Fraction(1), (AccessClass(1, TimeExpression(base=1, coeffs={"mu": 1})),)
    )
    with pytest.raises(BindingError, match="missing parameter 'mu'"):
        MemoryDesignProblem(
            base=parse_model(BASE_TWO),
            registers=1,
            kinds=(kind,),
            budget=Fraction(1),
            binding=ParameterBinding({}),
        )
    with pytest.raises(BindingError, match="undeclared parameter 'nu'"):
        MemoryDesignProblem(
            base=parse_model(BASE_TWO),
            registers=1,
            kinds=(kind,),
            budget=Fraction(1),
            binding=ParameterBinding({"mu": 1, "nu": 2}),
        )


def test_vertex_picks_bundled_fast_kind():
    problem = parse_problem(data_path("memory-example.json").read_text())
    best = optimize_vertex(problem)
    assert best.label == "kind1"
    assert best.cells == {"kind1": 2**30, "kind2": 0}
    assert best.total_cost == 1
    assert best.tie_with == ()
    assert abs(best.capacity.capacity_bits - KIND1_CAPACITY) <= 1e-9
    assert best.justification


def test_bundled_kinds_differ_beyond_tie_width():
    problem = parse_problem(data_path("memory-example.json").read_text())
    alt = solve_capacity(instantiate(problem, {"kind2": 2**34}))
    assert abs(alt.capacity_bits - KIND2_CAPACITY) <= 1e-9
    assert KIND1_CAPACITY - alt.capacity_bits > 1e-11


def test_vertex_tie_prefers_declaration_order():
    problem = small_problem(3, ("A", 1, [(2, 1)]), ("B", 1, [(2, 1)]))
    best = optimize_vertex(problem)
    assert best.label == "A"
    assert best.tie_with == ("B",)


def test_vertex_probes_below_the_leader_not_the_greatest_capacity():
    # K2 lies 0.86 tie widths above K1 and does not displace it; K3 lies 0.67
    # tie widths below K1, so it ties with the winner, though it lies more
    # than a tie width below K2: a probe below K2 would rule it out
    problem = small_problem(
        1, *((name, 1, [(2, 1), (1, Fraction(t))]) for name, t in [("K1", 17), ("K2", "16.93"), ("K3", "17.06")])
    )
    k1, k2, k3 = (solve_vec(problem, vec).capacity_bits for vec in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert 0 < k2 - k1 < 1e-11 and 0 < k1 - k3 < 1e-11 < k2 - k3
    best = optimize_vertex(problem)
    assert (best.label, best.tie_with) == ("K1", ("K2", "K3"))


def test_vertex_unaffordable_kinds_fall_back_to_base():
    problem = small_problem(1, ("A", 5, [(2, 1)]))
    best = optimize_vertex(problem)
    assert best.label == "none"
    assert best.cells == {"A": 0}
    assert best.total_cost == 0
    assert best.capacity.capacity_bits == pytest.approx(1.0, abs=1e-12)


def test_grid_exhausts_small_problem():
    problem = small_problem(2, ("A", 1, [(2, 1)]), ("B", 2, [(2, 1)]))
    best = optimize_grid(problem, 1)
    assert best.cells == {"A": 2, "B": 0}
    assert best.capacity.capacity_bits == pytest.approx(math.log2(6), abs=1e-12)
    assert best.total_cost == 2


@pytest.mark.parametrize("step", [0, -1, True, False, 1.0, "2", None])
def test_grid_step_must_be_a_positive_integer(step):
    # a bool is an int to isinstance, but not a step, as it is not a count
    problem = small_problem(2, ("A", 1, [(2, 1)]))
    with pytest.raises(ProblemError, match=f"step must be a positive integer, got {step!r}$"):
        optimize_grid(problem, step)


def test_grid_zero_budget_returns_base():
    problem = small_problem(0, ("A", 1, [(2, 1)]))
    best = optimize_grid(problem, 1)
    assert best.cells == {"A": 0}
    assert best.capacity.capacity_bits == pytest.approx(1.0, abs=1e-12)


def test_grid_single_kind_full_step_matches_vertex():
    problem = small_problem(6, ("A", 2, [(1, 1), (1, 2)]))
    vertex = optimize_vertex(problem)
    grid = optimize_grid(problem, step=3)  # grid {0, 3} = {none, all-in}
    assert grid.cells == vertex.cells
    assert grid.capacity.capacity_bits == pytest.approx(
        vertex.capacity.capacity_bits, abs=1e-12
    )


def test_grid_never_beats_vertex_on_exact_budgets():
    # the pure-allocation argument pins the optimum only when every
    # floor(budget/cost) spends the budget exactly, so draw budgets as
    # multiples of every cost; leftover budget can make a mixed allocation
    # win (see the acceptance suite for the raw-budget behavior)
    rng = random.Random(0x6B1D)
    for _ in range(8):
        kinds = [
            (
                f"k{i}",
                rng.randint(1, 3),
                [(rng.randint(1, 3), rng.randint(1, 4))],
            )
            for i in range(rng.randint(1, 3))
        ]
        budget = math.lcm(*(cost for _, cost, _ in kinds)) * rng.randint(0, 3)
        problem = small_problem(budget, *kinds, registers=rng.randint(1, 3))
        grid = optimize_grid(problem, 1)
        vertex = optimize_vertex(problem)
        assert (
            grid.capacity.capacity_bits
            <= vertex.capacity.capacity_bits + 1e-10
        )


def test_capacity_nondecreasing_in_cells():
    problem = small_problem(8, ("A", 1, [(2, 1), (1, 3)]))
    caps = [
        solve_capacity(instantiate(problem, {"A": n})).capacity_bits
        for n in range(0, 9, 2)
    ]
    assert caps == sorted(caps)


def test_allocation_cost_is_exact():
    problem = small_problem(
        1, ("A", Fraction(1, 3), [(1, 1)]), ("B", Fraction(1, 7), [(1, 1)])
    )
    grid = optimize_grid(problem, 1)
    cells = grid.cells
    assert grid.total_cost == Fraction(1, 3) * cells["A"] + Fraction(1, 7) * cells["B"]
    assert grid.total_cost <= problem.budget


def test_problem_validation():
    with pytest.raises(ProblemError, match="duplicate kind"):
        small_problem(1, ("A", 1, [(1, 1)]), ("A", 1, [(1, 1)]))
    with pytest.raises(ProblemError, match="budget"):
        small_problem(-1, ("A", 1, [(1, 1)]))
    with pytest.raises(ProblemError, match="cell_cost"):
        small_problem(1, ("A", 0, [(1, 1)]))
    with pytest.raises(ProblemError, match="access"):
        MemoryKind("A", Fraction(1), ())
    with pytest.raises(ProblemError, match="step"):
        optimize_grid(small_problem(1, ("A", 1, [(1, 1)])), 0)


def test_parse_problem_inline_base():
    problem = parse_problem(data_path("memory-example.json").read_text())
    assert problem.registers == 256
    assert problem.budget == 1
    assert [k.name for k in problem.kinds] == ["kind1", "kind2"]
    assert problem.kinds[0].cell_cost == Fraction(1, 2**30)
    assert problem.kinds[1].cell_cost == Fraction(1, 2**34)
    assert problem.binding.values == {"mu1": Fraction(6, 5), "mu2": Fraction(7, 5)}


def test_parse_problem_base_by_path(tmp_path):
    (tmp_path / "base.json").write_text(BASE_TWO)
    text = (
        '{"base": "base.json", "registers": 1, "budget": 2,'
        ' "kinds": [{"name": "A", "cell_cost": 1,'
        ' "access_classes": [{"count": 2, "time": {"base": 1}}]}]}'
    )
    problem = parse_problem(text, base_dir=tmp_path)
    assert problem.base.name == "b"
    best = optimize_grid(problem, 1)
    assert best.cells == {"A": 2}


def test_parse_problem_base_path_absolute_or_from_the_working_directory(tmp_path, monkeypatch):
    (tmp_path / "base.json").write_text(BASE_TWO)
    text = (
        '{"base": %s, "registers": 1, "budget": 2,'
        ' "kinds": [{"name": "A", "cell_cost": 1, "access_classes": [{"count": 2, "time": 1}]}]}'
    )
    read = []

    def read_base(path):
        read.append(path)
        return path.read_text()

    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    absolute = json.dumps(str(tmp_path / "base.json"))
    problems = [parse_problem(text % absolute, base_dir=elsewhere, read_base=read_base)]
    monkeypatch.chdir(tmp_path)
    problems.append(parse_problem(text % '"base.json"', read_base=read_base))
    assert read == [tmp_path / "base.json", Path.cwd() / "base.json"]
    assert problems[0] == problems[1] == parse_problem(text % '"base.json"', base_dir=tmp_path)


def test_parse_problem_errors(tmp_path):
    with pytest.raises(ProblemError, match="missing 'budget'"):
        parse_problem('{"base": %s, "registers": 1, "kinds": []}' % BASE_TWO)
    with pytest.raises(ProblemError, match="syntax"):
        parse_problem("{")
    with pytest.raises(ProblemError, match="cannot read"):
        parse_problem(
            '{"base": "missing.json", "registers": 1, "budget": 1,'
            ' "kinds": [{"name": "A", "cell_cost": 1,'
            ' "access_classes": [{"count": 1, "time": 1}]}]}',
            base_dir=tmp_path,
        )


@pytest.mark.parametrize(
    "kind, fragment",
    [
        (
            '{"name": "A", "cell_cost": 0, "access_classes": [{"count": 1, "time": 1}]}',
            "cell_cost must be > 0",
        ),
        (
            '{"name": "A", "cell_cost": 1, "access_classes": [{"count": 0, "time": 1}]}',
            "count must be >= 1",
        ),
        ('{"name": "A", "cell_cost": 1, "access_classes": []}', "no access classes"),
        (
            '{"name": "9A", "cell_cost": 1, "access_classes": [{"count": 1, "time": 1}]}',
            "must be an identifier",
        ),
    ],
    ids=["cell-cost", "access-count", "no-access", "kind-name"],
)
def test_parse_problem_value_errors(kind, fragment):
    text = '{"base": %s, "registers": 1, "budget": 1, "kinds": [%s]}' % (BASE_TWO, kind)
    with pytest.raises(ValueError, match=fragment):
        parse_problem(text)


KIND_A = '{"name": "A", "cell_cost": 1, "access_classes": [{"count": 1, "time": 1}]}'


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[1]", "problem file: expected an object"),
        (
            '{"base": %s, "registers": 1, "budget": 1, "kinds": [%s], "colour": 1}'
            % (BASE_TWO, KIND_A),
            "problem file: unknown key 'colour'",
        ),
        (
            '{"base": %s, "registers": 1, "budget": 1, "parameters": ["mu"], "kinds": [%s]}'
            % (BASE_TWO, KIND_A),
            "parameters: expected an object",
        ),
        ('{"base": %s, "registers": 1, "budget": 1, "kinds": []}' % BASE_TWO, "kinds must be non-empty"),
        (
            '{"base": %s, "registers": 1, "budget": 1, "kinds": [{"name": "A",'
            ' "cell_cost": 1, "speed": 2, "access_classes": [{"count": 1, "time": 1}]}]}'
            % BASE_TWO,
            r"kinds\[0\]: unknown key 'speed'",
        ),
        (
            '{"base": %s, "registers": 1, "budget": 1, "kinds": [{"name": "A",'
            ' "cell_cost": 1, "access_classes": [5]}]}' % BASE_TWO,
            r"kinds\[0\] access_classes\[0\]: expected an object",
        ),
        (
            '{"base": %s, "registers": 1, "budget": 1, "kinds": [{"name": "A",'
            ' "cell_cost": 1, "access_classes": [{"count": 1}]}]}' % BASE_TWO,
            r"kinds\[0\] access_classes\[0\]: missing 'time'",
        ),
        (
            '{"base": %s, "registers": 1, "budget": 1, "kinds": [{"name": "A",'
            ' "cell_cost": 1, "access_classes": [{"count": 1, "time": {"coeffs": {}}}]}]}'
            % BASE_TWO,
            r"kinds\[0\] access_classes\[0\] time: missing 'base'",
        ),
        (
            '{"base": %s, "registers": 1, "budget": 1, "kinds": [{"name": "A",'
            ' "cell_cost": 1, "access_classes": [{"count": 1, "time": [1]}]}]}' % BASE_TWO,
            r"kinds\[0\] access_classes\[0\] time: expected an object",
        ),
        (
            '{"base": "bad.json", "registers": 1, "budget": 1, "kinds": [%s]}' % KIND_A,
            r"base model 'bad.json' syntax error at line 2, column \d+",
        ),
        (
            '{"base": %s, "registers": %s, "budget": 1, "kinds": [%s]}'
            % (BASE_TWO, "1" * 5000, KIND_A),
            "problem: Exceeds the limit",
        ),
    ],
    ids=[
        "not-object",
        "unknown-key",
        "parameters-list",
        "no-kinds",
        "unknown-kind-key",
        "access-not-object",
        "access-no-time",
        "access-time-no-base",
        "access-time-list",
        "base-syntax",
        "digit-limit",
    ],
)
def test_parse_problem_shape_errors(tmp_path, text, fragment):
    (tmp_path / "bad.json").write_text('{"name": "b",\n "classes": [}')
    with pytest.raises(ProblemError, match=fragment):
        parse_problem(text, base_dir=tmp_path)


@pytest.mark.parametrize("shape", ["memory-example", "one-point-rows"])
def test_oversized_grid_is_refused_before_solving(shape):
    if shape == "memory-example":
        # the step-1 grid holds about 2**34 points; solving even the first
        # million of them takes minutes
        problem = parse_problem(data_path("memory-example.json").read_text())
    else:
        # the worst case for counting by rows: the last kind never fits,
        # so each of the two million rows holds one point
        problem = small_problem(2000, ("A", 1, [(1, 1)]), ("B", 1, [(1, 2)]), ("C", 10**6, [(1, 3)]))
    start = time.perf_counter()
    with pytest.raises(ProblemError, match="grid exceeds 1000000 points"):
        optimize_grid(problem, 1)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("step", [1, 2, 3])
def test_grid_reports_every_feasible_point(step):
    problem = small_problem(
        7, ("A", 2, [(1, 1)]), ("B", Fraction(3, 2), [(1, 2)]), ("C", 1, [(1, 3)])
    )
    feasible = [
        cells
        for cells in itertools.product(range(0, 8, step), repeat=3)
        if 2 * cells[0] + Fraction(3, 2) * cells[1] + cells[2] <= 7
    ]
    grid = optimize_grid(problem, step)
    assert f"evaluated {len(feasible)} feasible allocations" in grid.justification


def test_instantiate_reuses_the_bound_base(monkeypatch):
    import compucap.memory

    problem = parse_problem(data_path("memory-example.json").read_text())

    def forbidden(*args, **kwargs):
        raise AssertionError("instantiate must not bind the base again")

    monkeypatch.setattr(compucap.memory, "bind", forbidden)
    monkeypatch.setattr(compucap.memory, "ParameterBinding", forbidden)
    assert instantiate(problem, {}).members == problem.bound_base.members
    iset = instantiate(problem, {"kind1": 2})
    assert iset.members[: len(problem.bound_base.members)] == problem.bound_base.members


def test_access_time_must_be_positive():
    # the problem checks every access time when it is built, under the
    # binding it is built with
    kind = MemoryKind(
        "A", Fraction(1), (AccessClass(1, TimeExpression(base=0, coeffs={"mu": 1})),)
    )

    def problem(mu):
        return MemoryDesignProblem(
            base=parse_model(BASE_TWO),
            registers=1,
            kinds=(kind,),
            budget=Fraction(1),
            binding=ParameterBinding({"mu": mu}),
        )

    assert instantiate(problem(2), {"A": 1}).members[-1] == BoundClass("A/0", 1, Fraction(2))
    with pytest.raises(BindingError, match="'A/0': evaluated time 0 is not positive"):
        problem(0)


# --- the optimizers' compiled path against one solve_capacity per instance ---
BASE_ONE = '{"name": "one", "classes": [{"name": "x", "count": 1, "time": 1}]}'


def random_problem(rng: random.Random) -> MemoryDesignProblem:
    base = {
        "name": "b",
        "classes": [
            {"name": f"c{i}", "count": rng.randint(1, 5), "time": f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"}
            for i in range(rng.randint(1, 3))
        ],
    }
    kinds = tuple(
        MemoryKind(
            f"k{i}",
            Fraction(rng.randint(1, 5), rng.randint(1, 4)),
            tuple(
                AccessClass(rng.randint(1, 4), TimeExpression(base=Fraction(rng.randint(1, 12), rng.randint(1, 5))))
                for _ in range(rng.randint(1, 2))
            ),
        )
        for i in range(rng.randint(1, 3))
    )
    return MemoryDesignProblem(
        base=parse_model(json.dumps(base)),
        registers=rng.randint(1, 4),
        kinds=kinds,
        budget=Fraction(rng.randint(0, 12), rng.randint(1, 3)),
        binding=ParameterBinding({}),
    )


def solve_vec(problem: MemoryDesignProblem, vec: tuple[int, ...]) -> CapacityResult:
    """solve_capacity of instantiate's set for the cells vector vec, in
    kind-declaration order: the contract both optimizers keep."""
    return solve_capacity(instantiate(problem, {kind.name: n for kind, n in zip(problem.kinds, vec)}))


def walked_grid(problem: MemoryDesignProblem, step: int) -> list[tuple[int, ...]]:
    """Every cells vector the grid walker's rows stand for, in walk order."""
    return [last[:-1] + (n * step,) for last, count in _grid_rows(problem, step) for n in range(count)]


def fraction_grid(problem: MemoryDesignProblem, step: int) -> list[tuple[int, ...]]:
    """Every feasible cells vector, enumerated with exact rationals."""
    ranges = [range(0, int(problem.budget // k.cell_cost) + 1, step) for k in problem.kinds]
    return [
        vec
        for vec in itertools.product(*ranges)
        if sum(k.cell_cost * n for k, n in zip(problem.kinds, vec)) <= problem.budget
    ]


@pytest.mark.parametrize("step", [1, 2, 3])
def test_every_grid_point_matches_solve_capacity(step):
    rng = random.Random(0xC0DE + step)
    for _ in range(12):
        problem = random_problem(rng)
        columns = partial(_allocation_columns, problem)
        points = walked_grid(problem, step)
        assert points == fraction_grid(problem, step)
        reference = {vec: solve_vec(problem, vec) for vec in points}
        for vec in points:
            if any(vec):
                assert solve_compiled(columns(vec), problem.base.name) == reference[vec]
        grid = optimize_grid(problem, step)
        assert grid.capacity == reference[tuple(grid.cells.values())]


def test_a_replaced_budget_recomputes_the_integer_units():
    # dataclasses.replace builds the problem anew, so its units follow the
    # new budget, as a problem parsed with that budget has them
    example = data_path("memory-example.json")
    problem = parse_problem(example.read_text())
    small = dataclasses.replace(problem, budget=Fraction(1, 2**27))
    fresh = parse_problem(json.dumps({**json.loads(example.read_text()), "budget": "1/134217728"}))
    assert small.units == fresh.units == (2**34, 2**7, (2**4, 1))
    assert problem.units == (2**34, 2**34, (2**4, 1))
    assert optimize_vertex(small) == optimize_vertex(fresh)
    for step in (1, 2, 3):
        assert optimize_grid(small, step) == optimize_grid(fresh, step)


def test_vertex_candidates_match_solve_capacity():
    # the builder's columns are those compile_columns gives instantiate's set
    problem = parse_problem(data_path("memory-example.json").read_text())
    columns = partial(_allocation_columns, problem)
    for vec in [(0, 0), (2**30, 0), (0, 2**34), (1, 3)]:
        cells = dict(zip(("kind1", "kind2"), vec))
        assert columns(vec) == compile_columns(instantiate(problem, cells).members)
        if any(vec):
            assert solve_compiled(columns(vec), problem.base.name) == solve_vec(problem, vec)
    best = optimize_vertex(problem)
    assert best.capacity == solve_capacity(instantiate(problem, best.cells))


def zero_time_problem(cost) -> MemoryDesignProblem:
    kind = MemoryKind("A", Fraction(cost), (AccessClass(1, TimeExpression(base=0)),))
    return MemoryDesignProblem(
        base=parse_model(BASE_TWO), registers=1, kinds=(kind,), budget=Fraction(1),
        binding=ParameterBinding({}),
    )


def test_a_zero_access_time_is_refused_whether_or_not_a_cell_is_affordable():
    # the problem is refused when it is built, so no optimizer, step or
    # budget decides whether the fault is seen
    for cost in (2, 1):
        with pytest.raises(BindingError, match="'A/0': evaluated time 0 is not positive"):
            zero_time_problem(cost)


@pytest.mark.parametrize("budget", [0, 1], ids=["unaffordable", "affordable"])
def test_access_time_past_float_range_names_the_class(budget):
    with pytest.raises(ValueError, match="time of 'A/0' lies outside the float range"):
        small_problem(budget, ("A", 1, [(1, Fraction(10) ** 400)]))


@pytest.mark.parametrize("optimize", [optimize_vertex, optimize_grid])
def test_one_instruction_base_at_zero_budget(optimize):
    kind = MemoryKind("A", Fraction(1), (AccessClass(1, TimeExpression(base=1)),))
    problem = MemoryDesignProblem(
        base=parse_model(BASE_ONE), registers=1, kinds=(kind,), budget=Fraction(0),
        binding=ParameterBinding({}),
    )
    assert optimize(problem).capacity == CapacityResult(0.0, 0.0, 0.0, 0)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_grid_walker_matches_enumeration_across_denominators(step):
    problem = small_problem(
        Fraction(8, 5),
        ("A", Fraction(2**27 + 1, 2**30), [(1, 1)]),
        ("B", Fraction(1, 3), [(1, 2)]),
        ("C", Fraction(2, 7), [(1, 3)]),
    )
    assert [k.cell_cost.denominator for k in problem.kinds] == [2**30, 3, 7]
    assert walked_grid(problem, step) == fraction_grid(problem, step)
    # one and two kinds, against a budget of another denominator
    one = small_problem(Fraction(23, 5), ("A", Fraction(2, 7), [(1, 1)]))
    two = small_problem(
        Fraction(23, 5), ("A", Fraction(3, 4), [(1, 1)]), ("B", Fraction(2, 7), [(1, 2)])
    )
    for problem in (one, two):
        assert walked_grid(problem, step) == fraction_grid(problem, step)
        assert len(walked_grid(problem, step)) > 1


# --- optimize_grid against a walk that solves every grid point ---


def full_walk_grid(problem: MemoryDesignProblem, step: int, refused: list | None = None):
    """(cells, total cost, capacity, justification) from solving every
    walked point in walk order: a point displaces the incumbent when its
    capacity is higher by more than the tie width, or within the tie width
    and its vector is lexicographically greater.  A point whose solve
    raises ValueError is appended to `refused` and skipped, when given."""
    points = walked_grid(problem, step)
    best = None
    for vec in points:
        try:
            cap = solve_vec(problem, vec)
        except ValueError:
            if refused is None:
                raise
            refused.append(vec)
            continue
        if (
            best is None
            or cap.capacity_bits > best[0].capacity_bits + 1e-11
            or (abs(cap.capacity_bits - best[0].capacity_bits) <= 1e-11 and vec > best[1])
        ):
            best = (cap, vec)
    cap, vec = best
    cells = {kind.name: n for kind, n in zip(problem.kinds, vec)}
    cost = sum((kind.cell_cost * n for kind, n in zip(problem.kinds, vec)), Fraction(0))
    # optimize_grid solves the all-zero vector and the last point of each row
    last_points = {point[:-1]: point for point in points}
    solves = len(set(last_points.values()) | {(0,) * len(problem.kinds)})
    return cells, cost, cap, (
        f"evaluated {len(points)} feasible allocations on a step-{step} grid by solving {solves}: "
        "capacity never falls as a cell is added, so each row's last point stands for its row"
    )


def assert_grid_matches_full_walk(problem: MemoryDesignProblem, step: int) -> Allocation:
    grid = optimize_grid(problem, step)
    cells, cost, cap, justification = full_walk_grid(problem, step)
    assert grid.cells == cells
    assert grid.total_cost == cost
    assert grid.capacity == cap
    assert grid.justification == justification
    return grid


# optimize_grid decides a row by one evaluation whenever it can; the walk
# solves every point


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("seed", range(0x6A1, 0x6AA))
def test_grid_matches_a_full_walk_on_random_problems(seed, step):
    rng = random.Random(seed)
    for _ in range(20):
        assert_grid_matches_full_walk(random_problem(rng), step)


@pytest.mark.parametrize("budget", [6, 8])
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("kinds", [2, 3, 4])
def test_grid_exact_ties_take_the_greatest_vector(kinds, step, budget):
    # identical kinds: every full allocation has the same capacity to the
    # last bit or nearly, and the first kind takes the whole budget
    names = "ABCD"[:kinds]
    problem = small_problem(budget, *((name, 1, [(2, 1)]) for name in names))
    grid = assert_grid_matches_full_walk(problem, step)
    assert grid.cells == {name: budget if name == "A" else 0 for name in names}


@pytest.mark.parametrize("time", ["1e-5", "7e-9", "1e-40", "1e-100", "1e-180", "1e-300"])
@pytest.mark.parametrize("budget", [3, 4])
@pytest.mark.parametrize("kinds", [2, 3])
def test_grid_exact_ties_finer_than_a_float_spacing(kinds, budget, time):
    # past about 5e4 bits a float spacing is wider than the tie width, so
    # equal capacities tie only to the last bit, and a solved root
    # may lie a bracket above the sign change of another allocation's log2 g
    accesses = [{"count": 1, "time": time}, {"count": 3, "time": time}]
    problem = parse_problem(json.dumps({
        "base": {"name": "b", "classes": [{"name": "x", "count": 1, "time": time}]},
        "registers": 1,
        "budget": budget,
        "kinds": [{"name": f"K{k}", "cell_cost": 1, "access_classes": accesses} for k in range(kinds)],
    }))
    assert_grid_matches_full_walk(problem, 1)


@pytest.mark.parametrize("budget", [4, 5, 6])
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize(
    "kinds",
    [
        (("S1", 1, [(1, 41)]), ("S2", 1, [(1, 40)])),
        (("S1", 1, [(1, 40)]), ("S2", 1, [(1, 41)])),
        (("S1", 1, [(1, 39)]), ("S2", 1, [(1, 38)])),
        (("S", 1, [(1, 40)]), ("A", 2, [(1, 1)])),
        (("A", 2, [(1, 1)]), ("S", 1, [(1, 40)])),
        (("S1", 1, [(1, 41)]), ("A", 2, [(1, 2)]), ("S2", 1, [(1, 40)])),
    ],
    ids=["slower-first", "faster-first", "chain-past-tie-width", "slow-then-fast", "fast-then-slow", "three"],
)
def test_grid_near_ties_match_a_full_walk(kinds, step, budget):
    # a cell of access time near 40 moves the capacity of a 1-bit base by
    # about 1e-12 bits, inside the 1e-11 tie width
    assert_grid_matches_full_walk(small_problem(budget, *kinds), step)


def test_near_tie_of_lower_capacity_wins_when_greater():
    problem = small_problem(3, ("S1", 1, [(1, 41)]), ("S2", 1, [(1, 40)]))
    grid = optimize_grid(problem)
    assert grid.cells == {"S1": 3, "S2": 0}
    assert 0 < solve_vec(problem, (0, 3)).capacity_bits - grid.capacity.capacity_bits <= 1e-11


def test_grid_decides_from_zero_below_a_capacity_of_the_tie_width():
    # the base's capacity is about 3e-19 bits, so the incumbent less the tie
    # width is negative, and the family's closed sum overflows at y < 0
    problem = parse_problem(json.dumps({
        "base": {"name": "b", "classes": [
            {"name": "a", "count": 2, "time": "1e20"},
            {"name": "f", "count": 1, "time": "1e20", "family": {"step": 1, "terms": "1*2^100"}},
        ]},
        "registers": 1,
        "budget": 2,
        "kinds": [{"name": "K", "cell_cost": 1, "access_classes": [{"count": 1, "time": "1e20"}]}],
    }))
    grid = assert_grid_matches_full_walk(problem, 1)
    assert grid.cells == {"K": 2}
    assert grid.capacity.capacity_bits == 6.103574576695489e-19


@pytest.mark.parametrize("step", [1, 2, 3])
def test_capacity_never_falls_along_a_grid_row(step):
    # optimize_grid solves only each row's last point; rounding may put an
    # earlier point above it, but far inside the tie width
    for seed in (0x6A1, 0x6A2, 0x6A3):
        rng = random.Random(seed)
        for _ in range(10):
            problem = random_problem(rng)
            for last, count in _grid_rows(problem, step):
                caps = [solve_vec(problem, last[:-1] + (n * step,)).capacity_bits for n in range(count)]
                assert max(caps) - caps[-1] <= 1e-13


def relaxed_capacity(problem: MemoryDesignProblem, kind: MemoryKind) -> float:
    """The capacity of the base plus the fractional budget / cell_cost cells
    of kind, its columns compiled here, not by the grid's column builder."""
    cells = problem.budget / kind.cell_cost
    log2_counts, times, families = compile_columns(problem.bound_base.members)
    for ac in kind.access_classes:
        log2_counts.append(math.log2(problem.registers * ac.count_per_cell * cells))
        times.append(float(ac.time.evaluate(problem.binding.values)))
    return solve_compiled((log2_counts, times, families), "relaxed").capacity_bits


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("seed", range(0x6A1, 0x6AA))
def test_no_grid_point_beats_the_best_relaxed_vertex(seed, step):
    # any allocation's g is at most the largest g among the base plus the
    # whole budget spent, in fractional cells, on one kind
    rng = random.Random(seed)
    for _ in range(20):
        problem = random_problem(rng)
        bound = max([
            solve_capacity(problem.bound_base).capacity_bits,
            *(relaxed_capacity(problem, kind) for kind in problem.kinds if kind.cell_cost <= problem.budget),
        ])
        for vec in walked_grid(problem, step):
            assert solve_vec(problem, vec).capacity_bits <= bound + warm_slack(bound)


def test_a_relaxed_count_past_the_float_range_takes_its_log2_exactly():
    # the relaxed vertex holds 8/3 cells of 2**1024 instructions each, a
    # count float() overflows on
    problem = parse_problem(json.dumps({
        "base": json.loads(BASE_TWO),
        "registers": 1,
        "budget": 8,
        "kinds": [{"name": "K", "cell_cost": 3, "access_classes": [{"count": "1*2^1024", "time": 1}]}],
    }))
    log2_counts, _, _ = _allocation_columns(problem, (Fraction(8, 3),))
    assert log2_counts[-1] == 1024 + math.log2(8) - math.log2(3)
    assert assert_grid_matches_full_walk(problem, 1).cells == {"K": 2}


F = Fraction


@pytest.mark.parametrize(
    "budget, kinds, events, cells",
    [
        (
            # C costs more than the budget: no point installs it, and it has
            # no relaxed vertex; the all-zero vector is never solved
            4, (("A", 2, [(1, 1)]), ("B", 1, [(1, 2)]), ("C", 5, [(1, 1)])),
            [
                ("build", (2, 0, 0)), ("solve", (2, 0, 0)),
                ("build", (F(2), 0, 0)), ("probe", (F(2), 0, 0), True),
                ("build", (0, F(4), 0)), ("probe", (0, F(4), 0), True),
            ],
            {"A": 2, "B": 0, "C": 0},
        ),
        (
            2, (("A", 1, [(1, 1)]), ("B", 1, [(1, 1)])),
            [
                ("build", (2, 0)), ("solve", (2, 0)),
                ("build", (F(2), 0)), ("probe", (F(2), 0), True),
                ("build", (0, F(2))), ("probe", (0, F(2)), True),
            ],
            {"A": 2, "B": 0},
        ),
        (
            4, (("A", 2, [(1, 2)]), ("B", 1, [(1, 1)])),
            [
                ("build", (2, 0)), ("solve", (2, 0)),
                ("build", (F(2), 0)), ("probe", (F(2), 0), True),
                ("build", (0, F(4))), ("probe", (0, F(4)), False),
                # A's row end is the last point; B's is solved and bounds
                # (a) every allocation and (b) the one after it, (1, 2);
                # a relaxed vertex's columns are built once
                ("build", (0, 4)), ("solve", (0, 4)),
                ("probe", (F(2), 0), True), ("probe", (0, F(4)), True),
                ("probe", (F(2), 0), True),
                ("build", (1, F(2))), ("probe", (1, F(2)), True),
            ],
            {"A": 0, "B": 4},
        ),
        (
            4, (("A", 2, [(1, 2)]), ("B", 1, [(1, 2)]), ("C", 1, [(1, 1)])),
            [
                ("build", (2, 0, 0)), ("solve", (2, 0, 0)),
                ("build", (F(2), 0, 0)), ("probe", (F(2), 0, 0), True),
                ("build", (0, F(4), 0)), ("probe", (0, F(4), 0), False),
                # the row ends of B and C; C's is the greatest
                ("build", (0, 4, 0)), ("solve", (0, 4, 0)),
                ("build", (0, 0, 4)), ("solve", (0, 0, 4)),
                # (a): every relaxed vertex, from the columns built above
                ("probe", (F(2), 0, 0), True), ("probe", (0, F(4), 0), True),
                ("build", (0, 0, F(4))), ("probe", (0, 0, F(4)), True),
                # (b): allocations that exceed (0, 0, 4) first at A, then at B
                ("probe", (F(2), 0, 0), True),
                ("build", (1, F(2), 0)), ("probe", (1, F(2), 0), True),
                ("build", (1, 0, F(2))), ("probe", (1, 0, F(2)), True),
                ("probe", (0, F(4), 0), True),
                ("build", (0, 1, F(3))), ("probe", (0, 1, F(3)), True),
            ],
            {"A": 0, "B": 0, "C": 4},
        ),
        (
            3, (("A", 2, [(1, 1)]), ("B", 2, [(1, 2)])),
            [
                ("build", (1, 0)), ("solve", (1, 0)),
                # one and a half cells of A beat every whole allocation
                ("build", (F(3, 2), 0)), ("probe", (F(3, 2), 0), False),
                # A's row end is the last point, and B's loses to it
                ("build", (0, 1)), ("solve", (0, 1)),
                # the walk: the all-zero vector, then rows (0, 1) and (1, 0),
                # both read from the table
                ("build", (0, 0)), ("solve", (0, 0)),
            ],
            {"A": 1, "B": 0},
        ),
        (
            # the problem refuses Z's zero time when it is built, so no
            # allocation is built or solved
            2, (("Z", 1, [(1, 0)]), ("A", 1, [(1, 1)])), [], None,
        ),
    ],
    ids=[
        "last-point-wins", "identical-kinds-tie", "last-kind-wins", "last-of-three-kinds-wins",
        "fractional-cells", "zero-access-time",
    ],
)
def test_grid_solves_the_last_point_then_bounds_it(monkeypatch, budget, kinds, events, cells):
    import compucap.memory

    make_columns = compucap.memory._allocation_columns
    seen, built = [], []  # built: (vec, its columns), to name what a probe or solve reads

    def vec_of(cols):
        return next(vec for vec, built_cols in built if built_cols is cols)

    def spy(problem, vec):
        seen.append(("build", vec))
        built.append((vec, make_columns(problem, vec)))
        return built[-1][1]

    def probe(cols, y):
        below = root_below(cols, y)
        seen.append(("probe", vec_of(cols), below))
        return below

    def solve_point(cols, name):
        seen.append(("solve", vec_of(cols)))
        return solve_compiled(cols, name)

    monkeypatch.setattr(compucap.memory, "_allocation_columns", spy)
    monkeypatch.setattr(compucap.memory, "root_below", probe)
    monkeypatch.setattr(compucap.memory, "solve_compiled", solve_point)
    if cells is None:
        with pytest.raises(BindingError, match="'Z/0': evaluated time 0 is not positive"):
            small_problem(budget, *kinds)
    else:
        problem = small_problem(budget, *kinds)
        grid = optimize_grid(problem)
        assert grid.cells == cells
        assert (grid.cells, grid.total_cost, grid.capacity, grid.justification) == full_walk_grid(problem, 1)
    assert seen == events


@contextmanager
def grid_events():
    """Record, in order, what the memory optimizers do to each cells vector:
    ("build", vec) for its columns, ("probe", vec, below) for a root_below
    on them, and ("solve", vec) for a solve, or ("refused", vec) where the
    solver raises ValueError."""
    import compucap.memory

    make_columns = compucap.memory._allocation_columns
    events, built = [], {}  # built: id of columns -> (vec, the columns, kept alive)

    def build(problem, vec):
        events.append(("build", vec))
        cols = make_columns(problem, vec)
        built[id(cols)] = (vec, cols)
        return cols

    def probe(cols, y):
        below = root_below(cols, y)
        events.append(("probe", built[id(cols)][0], below))
        return below

    def solve(cols, name):
        vec = built[id(cols)][0]
        try:
            result = solve_compiled(cols, name)
        except ValueError:
            events.append(("refused", vec))
            raise
        events.append(("solve", vec))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compucap.memory, "_allocation_columns", build)
        patch.setattr(compucap.memory, "root_below", probe)
        patch.setattr(compucap.memory, "solve_compiled", solve)
        yield events


# one cell installs 2**1000 instructions of time 1e-307: a root past the float range
OVERFLOW_PROBLEM = {
    "base": {"name": "b", "classes": [{"name": "x", "count": 2, "time": 1}]},
    "registers": 1,
    "budget": 1,
    "kinds": [{"name": "K", "cell_cost": 1, "access_classes": [{"count": "1*2^1000", "time": "1e-307"}]}],
}


def test_a_refused_last_point_abandons_the_bound_and_is_refused_again_by_the_walk():
    problem = parse_problem(json.dumps(OVERFLOW_PROBLEM))
    for optimize in (optimize_vertex, optimize_grid):
        with pytest.raises(ValueError, match="^set 'b': the capacity lies outside the float range$"):
            optimize(problem)
    with grid_events() as events, pytest.raises(ValueError, match="outside the float range"):
        optimize_grid(problem)
    # a refused solve keeps nothing, so the walk solves the all-zero vector
    # and decides the last point afresh
    assert events == [
        ("build", (1,)), ("refused", (1,)), ("build", (0,)), ("solve", (0,)),
        ("build", (1,)), ("probe", (1,), False), ("refused", (1,)),
    ]


def test_a_refused_row_end_abandons_the_bound_and_is_refused_again_by_the_walk():
    # the last point buys A; the bound fails at K's relaxed vertex, and K's
    # row end, one cell of OVERFLOW_PROBLEM's kind, is refused
    kind_a = {"name": "A", "cell_cost": 1, "access_classes": [{"count": 1, "time": 1}]}
    problem = parse_problem(json.dumps({**OVERFLOW_PROBLEM, "kinds": [kind_a, *OVERFLOW_PROBLEM["kinds"]]}))
    with grid_events() as events, pytest.raises(ValueError, match="^set 'b': the capacity lies outside the float range$"):
        optimize_grid(problem)
    assert events == [
        ("build", (1, 0)), ("solve", (1, 0)),
        ("build", (F(1), 0)), ("probe", (F(1), 0), True),
        ("build", (0, F(1))), ("probe", (0, F(1)), False),
        ("build", (0, 1)), ("refused", (0, 1)),
        ("build", (0, 0)), ("solve", (0, 0)),
        ("build", (0, 1)), ("probe", (0, 1), False), ("refused", (0, 1)),
    ]


# the base's two instructions of time 1e308 put its root near 1e-308, where
# no residual reaches 1e-10; four cells of K install 12 instructions of time 1
REFUSED_BASE_PROBLEM = {
    "base": {"name": "b", "classes": [
        {"name": "x", "count": 1, "time": "1e308"}, {"name": "y", "count": 1, "time": "1e308"},
    ]},
    "registers": 1,
    "budget": 4,
    "kinds": [{"name": "K", "cell_cost": 1, "access_classes": [{"count": 3, "time": 1}]}],
}


@pytest.mark.parametrize("optimize", [optimize_vertex, optimize_grid], ids=["vertex", "grid"])
def test_a_base_whose_root_is_refused_refuses_no_design_settled_without_it(optimize):
    problem = parse_problem(json.dumps(REFUSED_BASE_PROBLEM))
    with pytest.raises(ValueError, match="^set 'b': residual above 1e-10 at float precision$"):
        solve_capacity(problem.bound_base)
    # vertex mode's probe and grid mode's bound each put the base below K's
    # four cells, so the base is never solved
    with grid_events() as events:
        best = optimize(problem)
    assert ("refused", (0,)) not in events and ("solve", (0,)) not in events
    assert best.cells == {"K": 4}
    assert best.capacity == solve_vec(problem, (4,))
    assert best.capacity.capacity_bits == 3.584962500721156


def test_base_time_past_float_range_is_named_before_a_zero_access_time():
    base = parse_model(
        '{"name": "b", "classes": [{"name": "x", "count": 1, "time": 1},'
        ' {"name": "far", "count": 1, "time": "1e400"}]}'
    )
    kind = MemoryKind("A", Fraction(1), (AccessClass(1, TimeExpression(base=0)),))
    # the base is compiled before any access time is checked
    with pytest.raises(ValueError, match="time of 'far' lies outside the float range"):
        MemoryDesignProblem(
            base=base, registers=1, kinds=(kind,), budget=Fraction(1), binding=ParameterBinding({})
        )


def test_zero_access_times_name_the_first_declared_kind():
    # of two faults the one declared first is named, though the grid's
    # first row would install B first
    kinds = tuple(
        MemoryKind(name, Fraction(1), (AccessClass(1, TimeExpression(base=0)),)) for name in "AB"
    )
    with pytest.raises(BindingError, match="'A/0': evaluated time 0 is not positive"):
        MemoryDesignProblem(
            base=parse_model(BASE_TWO), registers=1, kinds=kinds, budget=Fraction(2),
            binding=ParameterBinding({}),
        )


KIND_B = '{"name": "B", "cell_cost": 1, "access_classes": [{"count": 1, "time": 1}, {"count": %s, "time": 1}]}'


@pytest.mark.parametrize(
    "registers, count, message",
    [
        ("1.5", "1", "registers: invalid count 3/2"),
        ("true", "1", "registers: invalid count True"),
        ('"2^8"', "1", "registers: invalid count '2^8': expected integer or \"a*2^b\""),
        ("1", "2.5", "kinds[1] access_classes[1] count: invalid count 5/2"),
        ("1", "null", "kinds[1] access_classes[1] count: invalid count None"),
        ("2.0", "1", 'registers: invalid count 2: written as a decimal; expected integer or "a*2^b"'),
        (
            "1",
            "2e3",
            'kinds[1] access_classes[1] count: invalid count 2000: written as a decimal; expected integer or "a*2^b"',
        ),
        (
            "1",
            '"1*2^1000001"',
            "kinds[1] access_classes[1] count: invalid count '1*2^1000001': exponent above 1000000",
        ),
        ("0", "1", "registers must be >= 1"),
        ("-1", "1", "registers must be >= 1"),
    ],
    ids=[
        "registers-rational", "registers-bool", "registers-spelling", "access-rational", "access-null",
        "registers-decimal", "access-decimal", "access-exponent", "registers-zero", "registers-negative",
    ],
)
def test_problem_count_errors_name_their_path(registers, count, message):
    text = '{"base": %s, "registers": %s, "budget": 1, "kinds": [%s, %s]}' % (
        BASE_TWO, registers, KIND_A, KIND_B % count,
    )
    with pytest.raises(ProblemError) as info:
        parse_problem(text)
    assert type(info.value) is ProblemError
    assert str(info.value) == message


ONE_INSTRUCTION = '{"name": "o", "classes": [{"name": "a", "count": 1, "time": %s}]}'


def one_instruction_problem(time="3"):
    """A one-instruction base and one kind that cannot afford a cell."""
    kind = MemoryKind("K", Fraction(2), (AccessClass(1, TimeExpression(base=1)),))
    return MemoryDesignProblem(
        base=parse_model(ONE_INSTRUCTION % time), registers=1, kinds=(kind,), budget=Fraction(1),
        binding=ParameterBinding({}),
    )


@pytest.mark.parametrize("optimize", [optimize_vertex, optimize_grid], ids=["vertex", "grid"])
def test_a_one_instruction_base_is_solved_from_its_columns(monkeypatch, optimize):
    import compucap.memory

    solved = []

    def spy(cols, name):
        solved.append(cols)
        return solve_compiled(cols, name)

    monkeypatch.setattr(compucap.memory, "solve_compiled", spy)
    best = optimize(one_instruction_problem())
    assert (best.cells, best.total_cost) == ({"K": 0}, 0)
    assert best.capacity == CapacityResult(0.0, 0.0, 0.0, 0)
    assert solved and all(cols == ([0.0], [3.0], []) for cols in solved)
    assert len(solved) == 1  # the grid's last point is the all-zero vector, solved once


def test_a_hand_built_base_count_below_one_is_named():
    # a bound base built by hand, past the parser's own count check
    problem = one_instruction_problem()
    object.__setattr__(problem, "bound_base", BoundInstructionSet("o", (BoundClass("a", 0, Fraction(3)),)))
    with pytest.raises(ValueError, match="^count of 'a' must be >= 1$"):
        optimize_vertex(problem)


@pytest.mark.parametrize("optimize", [optimize_vertex, optimize_grid], ids=["vertex", "grid"])
def test_a_one_instruction_base_past_the_float_range_is_refused(optimize):
    # as solve_capacity and `compucap capacity` refuse the base itself,
    # whether or not a kind affords a cell
    with pytest.raises(ValueError, match="^time of 'a' lies outside the float range"):
        optimize(one_instruction_problem('"1e400"'))
    with pytest.raises(ValueError, match="^time of 'a' lies outside the float range"):
        solve_capacity(one_instruction_problem('"1e400"').bound_base)
