"""Property tests: optimize_grid on extreme problems equals a walk that
solves every grid point and solves no point twice, and a problem with a
bad access time is refused when it is built, whatever an optimizer would
install."""

import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compucap import BindingError, optimize_grid, optimize_vertex, parse_problem
from compucap.memory import _allocation_columns
from compucap.solver import root_below
from test_memory import full_walk_grid, grid_events

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


@settings(max_examples=300, deadline=None)
@given(problems)
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
