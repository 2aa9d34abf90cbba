"""Property test: optimize_grid on extreme problems equals a walk that
solves every grid point."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compucap import optimize_grid, parse_problem
from compucap.memory import _allocation_solver
from compucap.solver import root_below
from test_memory import full_walk_grid

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


kinds = st.lists(
    st.fixed_dictionaries({
        "cell_cost": st.integers(1, 3),
        "access_classes": st.lists(
            st.fixed_dictionaries({"count": counts, "time": times}), min_size=1, max_size=2
        ),
    }),
    min_size=1,
    max_size=3,
)
problems = st.builds(
    lambda base, registers, budget, kinds: {
        "base": base,
        "registers": registers,
        "budget": budget,
        "kinds": [{"name": f"K{k}", **kind} for k, kind in enumerate(kinds)],
    },
    base_classes(), st.integers(1, 4), st.integers(0, 8), kinds,
)


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
    columns = _allocation_solver(problem)
    for vec in refused:
        assert root_below(columns(vec), grid.capacity.capacity_bits)
