import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from compucap import (
    AccessClass,
    BindingError,
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
from compucap.memory import Allocation, _allocation_solver, _grid_rows

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
    kind = MemoryKind(
        "A", Fraction(1), (AccessClass(1, TimeExpression(base=0, coeffs={"mu": 1})),)
    )
    problem = MemoryDesignProblem(
        base=parse_model(BASE_TWO),
        registers=1,
        kinds=(kind,),
        budget=Fraction(1),
        binding=ParameterBinding({"mu": 0}),
    )
    assert instantiate(problem, {"A": 0}).members == problem.bound_base.members
    with pytest.raises(BindingError, match="'A/0': evaluated time 0 is not positive"):
        instantiate(problem, {"A": 1})


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


def walked_grid(problem: MemoryDesignProblem, step: int) -> list[tuple[int, ...]]:
    """Every cells vector the grid walker's rows stand for, in walk order."""
    return [prefix + (n,) for prefix, top in _grid_rows(problem, step) for n in range(0, top + 1, step)]


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
        names = [kind.name for kind in problem.kinds]
        solve = _allocation_solver(problem)
        points = walked_grid(problem, step)
        assert points == fraction_grid(problem, step)
        reference = {
            vec: solve_capacity(instantiate(problem, dict(zip(names, vec)))) for vec in points
        }
        for vec in points:
            assert solve(vec) == reference[vec]
        grid = optimize_grid(problem, step)
        assert grid.capacity == reference[tuple(grid.cells.values())]


def test_vertex_candidates_match_solve_capacity():
    problem = parse_problem(data_path("memory-example.json").read_text())
    solve = _allocation_solver(problem)
    candidates = [(0, 0), (2**30, 0), (0, 2**34)]
    for vec in candidates:
        cells = dict(zip(("kind1", "kind2"), vec))
        assert solve(vec) == solve_capacity(instantiate(problem, cells))
    best = optimize_vertex(problem)
    assert best.capacity == solve_capacity(instantiate(problem, best.cells))


def zero_time_problem(cost) -> MemoryDesignProblem:
    kind = MemoryKind("A", Fraction(cost), (AccessClass(1, TimeExpression(base=0)),))
    return MemoryDesignProblem(
        base=parse_model(BASE_TWO), registers=1, kinds=(kind,), budget=Fraction(1),
        binding=ParameterBinding({}),
    )


def test_unaffordable_kind_with_zero_time_raises_nothing():
    problem = zero_time_problem(2)
    assert optimize_vertex(problem).label == "none"
    assert optimize_grid(problem).cells == {"A": 0}
    affordable = zero_time_problem(1)
    for optimize in (optimize_vertex, optimize_grid):
        with pytest.raises(BindingError, match="'A/0': evaluated time 0 is not positive"):
            optimize(affordable)


@pytest.mark.parametrize("optimize", [optimize_vertex, optimize_grid])
def test_access_time_past_float_range_names_the_class(optimize):
    problem = small_problem(1, ("A", 1, [(1, Fraction(10) ** 400)]))
    with pytest.raises(ValueError, match="time of 'A/0' lies outside the float range"):
        optimize(problem)


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


# --- optimize_grid against a walk that solves every grid point ---


def full_walk_grid(problem: MemoryDesignProblem, step: int, refused: list | None = None):
    """(cells, total cost, capacity, justification) from solving every
    walked point in walk order: a point displaces the incumbent when its
    capacity is higher by more than the tie width, or within the tie width
    and its vector is lexicographically greater.  A point whose solve
    raises ValueError is appended to `refused` and skipped, when given."""
    solve = _allocation_solver(problem)
    points = walked_grid(problem, step)
    best = None
    for vec in points:
        try:
            cap = solve(vec)
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


# optimize_grid decides a row from a climb that starts near the incumbent
# whenever it can; the walk solves every point from y = 0


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
    # equal capacities tie only to the last bit, and a root solved from 0
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
    solve = _allocation_solver(problem)
    grid = optimize_grid(problem)
    assert grid.cells == {"S1": 3, "S2": 0}
    assert 0 < solve((0, 3)).capacity_bits - grid.capacity.capacity_bits <= 1e-11


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


def test_grid_falls_back_to_the_climb_from_zero(monkeypatch):
    import compucap.memory

    # Near the base's root, 7.02e178, log2 g rounds by more than it moves in
    # a float spacing of y, so Newton overshoots the sign change by a few
    # spacings either way.  Row (1,) adds a cell whose weight there is
    # about 2^-488 of the base's, so its root is the base's; the climb from its
    # floor, 16 spacings below, cycles to "no root found", and the climb
    # from 0 certifies in 3 evaluations.
    problem = parse_problem(json.dumps({
        "base": {"name": "b", "classes": [{
            "name": "c0", "count": "9*2^8", "time": "9e-178",
            "family": {"step": "6e-295", "terms": "1*2^52"},
        }]},
        "registers": 1,
        "budget": 1,
        "kinds": [{"name": "K0", "cell_cost": 1, "access_classes": [{"count": 7, "time": "7e-177"}]}],
    }))
    make_solver = compucap.memory._allocation_solver
    raised = []

    def spy(problem):
        solve = make_solver(problem)

        def recorded(vec, *floor):
            try:
                return solve(vec, *floor)
            except ValueError as exc:
                raised.append((vec, floor, str(exc)))
                raise

        return recorded

    monkeypatch.setattr(compucap.memory, "_allocation_solver", spy)
    grid = assert_grid_matches_full_walk(problem, 1)
    assert grid.cells == {"K0": 1}
    ((vec, floor, message),) = raised
    assert vec == (1,) and floor[0] > 0.0
    assert message == "set 'b': no root found in 10000 iterations at float precision"


@pytest.mark.parametrize("step", [1, 2, 3])
def test_capacity_never_falls_along_a_grid_row(step):
    # optimize_grid solves only each row's last point; rounding may put an
    # earlier point above it, but far inside the tie width
    for seed in (0x6A1, 0x6A2, 0x6A3):
        rng = random.Random(seed)
        for _ in range(10):
            problem = random_problem(rng)
            solve = _allocation_solver(problem)
            for prefix, top in _grid_rows(problem, step):
                caps = [solve(prefix + (n,)).capacity_bits for n in range(0, top + 1, step)]
                assert max(caps) - caps[-1] <= 1e-13


@pytest.mark.parametrize(
    "last_cost, step",
    [(1, 1), (1, 2), (1, 3), (8, 1)],
    ids=["step-1", "step-2", "step-3", "last-kind-never-fits"],
)
def test_grid_solves_the_zero_vector_and_each_rows_last_point(monkeypatch, last_cost, step):
    import compucap.memory

    # the problem of test_grid_reports_every_feasible_point; where the last
    # kind never fits, every row holds one point and the first is all-zero
    problem = small_problem(
        7, ("A", 2, [(1, 1)]), ("B", Fraction(3, 2), [(1, 2)]), ("C", last_cost, [(1, 3)])
    )
    make_solver = compucap.memory._allocation_solver
    decided, cold = [], []

    def spy(problem):
        solve = make_solver(problem)

        def counted(vec, *floor):
            # a call that carries a floor decides its row; one without
            # solves from y = 0
            (decided if floor else cold).append(vec)
            return solve(vec, *floor)

        return counted

    monkeypatch.setattr(compucap.memory, "_allocation_solver", spy)
    grid = optimize_grid(problem, step)
    rows = list(_grid_rows(problem, step))
    last_points = [prefix + (top - top % step,) for prefix, top in rows]
    solved = [(0, 0, 0)] + decided
    if last_points[0] == (0, 0, 0):
        assert solved == last_points
    else:
        assert solved == [(0, 0, 0)] + last_points
    assert len(solved) <= len(rows) + 1
    assert f" by solving {len(solved)}: " in grid.justification
    # the zero vector first, then at most one solve from 0 per decided row,
    # the winner's included
    assert cold[0] == (0, 0, 0)
    assert len(set(cold[1:])) == len(cold) - 1 and set(cold[1:]) <= set(decided)
    assert tuple(grid.cells.values()) in cold
    assert grid.capacity == solve_capacity(instantiate(problem, grid.cells))


def test_base_time_past_float_range_is_named_before_a_zero_access_time():
    base = parse_model(
        '{"name": "b", "classes": [{"name": "x", "count": 1, "time": 1},'
        ' {"name": "far", "count": 1, "time": "1e400"}]}'
    )
    kind = MemoryKind("A", Fraction(1), (AccessClass(1, TimeExpression(base=0)),))
    problem = MemoryDesignProblem(
        base=base, registers=1, kinds=(kind,), budget=Fraction(1), binding=ParameterBinding({})
    )
    with pytest.raises(ValueError, match="time of 'far' lies outside the float range"):
        optimize_grid(problem)


def test_zero_access_time_names_the_kind_the_first_row_installs():
    kinds = tuple(
        MemoryKind(name, Fraction(1), (AccessClass(1, TimeExpression(base=0)),)) for name in "AB"
    )
    problem = MemoryDesignProblem(
        base=parse_model(BASE_TWO), registers=1, kinds=kinds, budget=Fraction(2),
        binding=ParameterBinding({}),
    )
    with pytest.raises(BindingError, match="'B/0': evaluated time 0 is not positive"):
        optimize_grid(problem)


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
