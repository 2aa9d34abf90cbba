"""Property tests: optimize_grid on extreme problems equals a walk that
solves every grid point and solves no point twice, optimize_vertex equals
solving every candidate and solves none its probe ruled out, and a
problem with a bad access time is refused when it is built, whatever an
optimizer would install."""

import json
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compucap import BindingError, optimize_grid, optimize_vertex, parse_problem
from compucap.memory import _allocation_columns
from compucap.solver import root_below
from test_memory import full_walk_grid, grid_events, solve_vec

counts = st.builds("{}*2^{}".format, st.integers(1, 9), st.integers(0, 3000))
times = st.builds("{}e{}".format, st.integers(1, 9), st.integers(-300, 300))
families = st.fixed_dictionaries(
    {"step": times, "terms": st.builds("1*2^{}".format, st.integers(0, 3000))}
)


@st.composite
def base_classes(draw):
    classes = []
    for i in range(draw(st.integers(1, 3))):
        member = {"name": f"c{i}", "count": draw(counts), "time": draw(times)}
        family = draw(st.none() | families)
        if family:
            member["family"] = family
        classes.append(member)
    return {"name": "b", "classes": classes}


def problem_docs(access_times):
    """Problem documents whose access classes draw their times from access_times."""
    kinds = st.lists(
        st.fixed_dictionaries({
            "cell_cost": st.integers(1, 3),
            "access_classes": st.lists(
                st.fixed_dictionaries({"count": counts, "time": access_times}), min_size=1, max_size=2
            ),
        }),
        min_size=1,
        max_size=3,
    )
    return st.builds(
        lambda base, registers, budget, kinds: {
            "base": base,
            "registers": registers,
            "budget": budget,
            "kinds": [{"name": f"K{k}", **kind} for k, kind in enumerate(kinds)],
        },
        base_classes(), st.integers(1, 4), st.integers(0, 8), kinds,
    )


problems = problem_docs(times)
# zero, below the float range and past it
BAD_TIMES = {
    "0": (BindingError, "member '{}': evaluated time 0 is not positive"),
    "1e-400": (ValueError, "time of '{}' lies outside the float range"),
    "1e400": (ValueError, "time of '{}' lies outside the float range"),
}


# the base's root is refused, and so is that of (1,), which lies within
# the tie width below the winner (2,)
BASE_REFUSED = {
    "base": {"name": "b", "classes": [{
        "name": "c0", "count": "1*2^0", "time": "1e3", "family": {"step": "1e235", "terms": "1*2^245"},
    }]},
    "registers": 1,
    "budget": 2,
    "kinds": [{"name": "K0", "cell_cost": 1, "access_classes": [{"count": "1*2^1319", "time": "1e17"}]}],
}


@settings(max_examples=300, deadline=None)
@given(problems)
@example(BASE_REFUSED)
def test_grid_on_extreme_problems_equals_the_full_walk(doc):
    problem = parse_problem(json.dumps(doc))
    try:
        grid = optimize_grid(problem)
    except ValueError:
        # each point the grid solves is a walked point
        with pytest.raises(ValueError):
            full_walk_grid(problem, 1)
        return
    refused = []
    cells, cost, capacity, justification = full_walk_grid(problem, 1, refused=refused)
    assert grid.cells == cells
    assert grid.total_cost == cost
    assert grid.capacity == capacity
    assert grid.justification == justification
    # the one difference: a point whose root no solve certifies, where the
    # walk refuses, lies below the winner, as one evaluation shows
    columns = partial(_allocation_columns, problem)
    if (0,) * len(problem.kinds) in refused:
        # a base whose root no solve certifies, where the grid settles
        # without it: a refused point loses under the tie rule, below the
        # winner's capacity plus the tie width if it comes before the
        # winner in walk order, less the tie width if after
        winner = tuple(grid.cells.values())
        for vec in refused:
            assert root_below(columns(vec), grid.capacity.capacity_bits + (1e-11 if vec < winner else -1e-11))
        return
    for vec in refused:
        assert root_below(columns(vec), grid.capacity.capacity_bits)


@settings(max_examples=300, deadline=None)
@given(problems, st.integers(1, 3))
def test_the_grid_solves_no_point_twice_and_probes_none_it_solved(doc, step):
    problem = parse_problem(json.dumps(doc))
    with grid_events() as events:
        try:
            optimize_grid(problem, step)
        except ValueError:
            pass
    solved = set()
    for event, vec, *_ in events:
        # the bound probes relaxed vertices, whose Fraction cells compare
        # equal to a grid point's int cells; only grid points are checked
        if event != "build" and all(type(n) is int for n in vec):
            assert vec not in solved, (event, vec)
        if event == "solve":
            solved.add(vec)


@st.composite
def vertex_docs(draw):
    """Problems of one to four kinds, some identical to an earlier kind (an
    exact tie), of rational costs that may exceed a rational budget or
    leave a remainder of it."""
    small_counts = st.integers(1, 64) | st.integers(1, 64) | counts
    small_times = st.sampled_from(["1", "3/2", "2", "5", "40"]) | st.sampled_from(["1", "2"]) | times
    kinds = []
    for k in range(draw(st.integers(1, 4))):
        if kinds and draw(st.booleans()):
            kind = draw(st.sampled_from(kinds))
        else:
            kind = {
                "cell_cost": f"{draw(st.integers(1, 5))}/{draw(st.integers(1, 3))}",
                "access_classes": draw(st.lists(
                    st.fixed_dictionaries({"count": small_counts, "time": small_times}), min_size=1, max_size=2
                )),
            }
        kinds.append({**kind, "name": f"K{k}"})
    small_base = st.builds(
        lambda count, time: {"name": "b", "classes": [{"name": "c0", "count": count, "time": time}]},
        small_counts, small_times,
    )
    return {
        "base": draw(small_base | base_classes()),
        "registers": draw(st.integers(1, 4)),
        "budget": f"{draw(st.integers(0, 24))}/{draw(st.integers(1, 3))}",
        "kinds": kinds,
    }


def vertex_by_every_solve(problem, refused):
    """(label, cells vector, capacity, tie_with) from solving every vertex
    candidate in declaration order ("none" first): a later one displaces
    the incumbent when its capacity is higher by more than the tie width,
    and the others within the tie width of the winner are its ties.  A
    candidate whose solve raises ValueError is appended to refused, with
    its message, and skipped; None where every candidate is."""
    zero = (0,) * len(problem.kinds)
    candidates = [("none", zero)] + [
        (kind.name, zero[:k] + (n,) + zero[k + 1 :])
        for k, kind in enumerate(problem.kinds)
        if (n := int(problem.budget // kind.cell_cost))
    ]
    solved = []
    for label, vec in candidates:
        try:
            solved.append((label, vec, solve_vec(problem, vec)))
        except ValueError as exc:
            refused.append((vec, str(exc)))
    if not solved:
        return None
    label, vec, cap = best = solved[0]
    for entry in solved[1:]:
        if entry[2].capacity_bits > best[2].capacity_bits + 1e-11:
            label, vec, cap = best = entry
    ties = tuple(other for other, _, c in solved if other != label and abs(c.capacity_bits - cap.capacity_bits) <= 1e-11)
    return label, vec, cap, ties


@settings(max_examples=300, deadline=None)
@given(vertex_docs())
def test_vertex_equals_solving_every_candidate_and_solves_none_ruled_out(doc):
    problem = parse_problem(json.dumps(doc))
    with grid_events() as events:
        try:
            vertex = optimize_vertex(problem)
        except ValueError as exc:
            vertex = exc
    ruled_out = set()
    for event, vec, *below in events:
        assert event not in ("solve", "refused") or vec not in ruled_out, (event, vec)
        if event == "probe" and below[0]:
            ruled_out.add(vec)
    refused = []
    expected = vertex_by_every_solve(problem, refused)
    if isinstance(vertex, ValueError):
        # a refused candidate that no probe ruled out refuses the design;
        # where the first solve is refused, every candidate is solved in
        # declaration order, and the first fault met is named
        solves = [(event, vec) for event, vec, *_ in events if event in ("solve", "refused")]
        if solves[0][0] == "refused":
            assert str(vertex) == refused[0][1]
        else:
            assert solves[-1][0] == "refused" and str(vertex) == dict(refused)[solves[-1][1]]
        return
    label, vec, cap, ties = expected
    assert (vertex.label, tuple(vertex.cells.values()), vertex.capacity, vertex.tie_with) == (label, vec, cap, ties)
    assert vertex.total_cost == sum((kind.cell_cost * n for kind, n in zip(problem.kinds, vec)), Fraction(0))
    # a candidate no solve certifies was ruled out by its probe
    assert {vec for vec, _ in refused} <= ruled_out


@settings(max_examples=300, deadline=None)
@given(problem_docs(times | st.sampled_from(sorted(BAD_TIMES))))
def test_a_bad_access_time_refuses_the_problem_whatever_is_installed(doc):
    bad = [
        (f"{kind['name']}/{j}", ac["time"])
        for kind in doc["kinds"]
        for j, ac in enumerate(kind["access_classes"])
        if ac["time"] in BAD_TIMES
    ]
    if bad:
        name, time = bad[0]  # the first declared is named
        error, message = BAD_TIMES[time]
        with pytest.raises(error) as info:
            parse_problem(json.dumps(doc))
        assert str(info.value).startswith(message.format(name))
        return
    problem = parse_problem(json.dumps(doc))
    for optimize in (optimize_vertex, *(partial(optimize_grid, step=step) for step in (1, 2, 3))):
        try:
            optimize(problem)
        except ValueError as exc:
            # a solver's refusal names the set, never an input
            assert type(exc) is ValueError and str(exc).startswith("set 'b': "), exc
