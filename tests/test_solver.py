import dataclasses
import json
import math
import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import compucap.solver as solver
from compucap import (
    BoundClass,
    BoundFamily,
    BoundInstructionSet,
    ParameterBinding,
    bind,
    data_path,
    eval_characteristic,
    optimal_distribution,
    parse_model,
    solve_capacity,
)
from compucap.solver import compile_columns, member_points

# Independently derived reference roots (quadratic closed form for the
# two-speed set; high-precision root solves for the bundled models).
LOG2_SILVER = 1.2715533031636120  # log2(1 + sqrt(2))
MIX_CAPACITY = 28.1699250025039337
MMIX_CAPACITY = {
    "1": 31.1189410730706594,
    "6/5": 31.1189410728686680,
    "2": 31.1189410728659288,
    "5": 31.1189410728659288,
}


def classes(*pairs) -> BoundInstructionSet:
    members = tuple(
        BoundClass(f"c{i}", count, Fraction(time))
        for i, (count, time) in enumerate(pairs)
    )
    return BoundInstructionSet("test", members)


TOY = classes((2, 1), (1, 2))


def _model(doc) -> BoundInstructionSet:
    return bind(parse_model(json.dumps(doc)), ParameterBinding())


def bound_model(name: str, **params) -> BoundInstructionSet:
    iset = parse_model(data_path(name).read_text())
    return bind(iset, ParameterBinding({k: Fraction(v) for k, v in params.items()}))


def test_eval_two_speed_at_one():
    assert eval_characteristic(TOY, 1.0) == pytest.approx(1.25, abs=1e-15)


def test_eval_family_three_terms():
    fam = BoundInstructionSet(
        "f", (BoundFamily("g", 1, Fraction(1), Fraction(2), 3),)
    )
    assert eval_characteristic(fam, 1.0) == pytest.approx(0.65625, abs=1e-15)


def test_eval_at_root_is_one():
    assert abs(eval_characteristic(TOY, LOG2_SILVER) - 1.0) <= 1e-12


def test_eval_at_zero_is_total_count():
    fam = BoundInstructionSet(
        "f",
        (
            BoundClass("a", 5, Fraction(3)),
            BoundFamily("g", 4, Fraction(1), Fraction(2), 7),
        ),
    )
    assert eval_characteristic(fam, 0.0) == 33.0


@pytest.mark.parametrize("y", [-0.5, math.nan], ids=["negative", "nan"])
def test_eval_rejects_negative_argument(y):
    with pytest.raises(ValueError, match=f"^y must be >= 0, got {y}$"):
        eval_characteristic(TOY, y)


def test_eval_where_every_weight_underflows_is_zero():
    # at y = 1e308 each t * y overflows, so every member's log2 weight is
    # -inf; the top weight was once looked up by value and was nan
    assert eval_characteristic(classes((2, 2), (1, 3)), 1e308) == 0.0


def test_eval_strictly_decreasing():
    rng = random.Random(0x5EED)
    for _ in range(20):
        iset = classes(*((rng.randint(1, 50), rng.randint(1, 9)) for _ in range(4)))
        ys = sorted(rng.uniform(0.0, 6.0) for _ in range(6))
        values = [eval_characteristic(iset, y) for y in ys]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_capacity_two_unit_instructions():
    result = solve_capacity(classes((2, 1)))
    assert abs(result.capacity_bits - 1.0) <= 1e-12


def test_capacity_single_instruction_is_zero():
    result = solve_capacity(classes((1, 5)))
    assert result.capacity_bits == 0.0
    assert result.residual == 0.0


def test_capacity_empty_set_raises():
    with pytest.raises(ValueError, match="instruction set has no instructions"):
        solve_capacity(BoundInstructionSet("empty", ()))
    with pytest.raises(ValueError, match="^instruction set has no instructions$"):
        solver.solve_compiled(compile_columns(()), "empty")
    # counts below 1 are refused where the columns compile, before any solve
    with pytest.raises(ValueError):
        solve_capacity(classes((0, 1)))


@pytest.mark.parametrize(
    "member",
    [BoundClass("a", 1, Fraction(5)), BoundFamily("f", 1, Fraction(5), Fraction(10**400), 1)],
    ids=["class", "one-term-family"],
)
def test_one_instruction_columns_solve_to_zero_with_no_evaluation(monkeypatch, member):
    iset = BoundInstructionSet("one", (member,))
    columns = compile_columns(iset.members)
    monkeypatch.setattr(solver, "_log2_char", None)  # an evaluation would fail
    expected = solver.CapacityResult(0.0, 0.0, 0.0, 0)
    assert solver.solve_compiled(columns, "one") == solve_capacity(iset) == expected


def test_root_below_reads_false_at_or_below_zero_with_no_evaluation(monkeypatch):
    columns = solver.bound_columns(bound_model("mix.json"))
    # evaluated, the closed sum of mix's 2**25 + 1-term family overflows at -1.0
    assert solver.root_below(columns, -1.0) is False
    monkeypatch.setattr(solver, "_log2_char", None)
    for y in (0.0, -0.0, -1e-300, -1e308):
        assert solver.root_below(columns, y) is False


def test_capacity_two_speed_closed_form():
    result = solve_capacity(TOY)
    assert abs(result.capacity_bits - LOG2_SILVER) <= 1e-12


def test_capacity_uniform_class_closed_form():
    # s instructions of one time t: root solves s * X**-t = 1
    rng = random.Random(0xCAFE)
    for _ in range(10):
        s, t = rng.randint(2, 10**6), rng.randint(1, 64)
        result = solve_capacity(classes((s, t)))
        assert abs(result.capacity_bits - math.log2(s) / t) <= 1e-12


def test_mix_capacity():
    result = solve_capacity(bound_model("mix.json"))
    assert abs(result.capacity_bits - MIX_CAPACITY) <= 1e-9


@pytest.mark.parametrize("mu", ["1", "6/5", "2", "5"])
def test_mmix_capacity(mu):
    result = solve_capacity(bound_model("mmix.json", mu=mu))
    assert abs(result.capacity_bits - MMIX_CAPACITY[mu]) <= 1e-9


def test_solver_diagnostics_within_contract():
    for iset in (TOY, classes((7, 3), (2, 1), (1, 8)), bound_model("mix.json")):
        result = solve_capacity(iset)
        assert result.capacity_bits >= 0.0
        assert result.residual <= 1e-10
        assert result.bracket_width <= 1e-12
        assert 0 < result.iterations < 10_000


def test_kraft_identity_via_independent_evaluation():
    # plugging the solved root back into eval_characteristic must give 1
    rng = random.Random(0xBEEF)
    for _ in range(15):
        iset = classes(*((rng.randint(1, 1000), rng.randint(1, 30)) for _ in range(3)))
        y = solve_capacity(iset).capacity_bits
        assert abs(eval_characteristic(iset, y) - 1.0) <= 1e-10


def test_family_matches_expanded_classes():
    """A family must be indistinguishable from listing its terms as classes."""
    family = BoundInstructionSet(
        "fam",
        (
            BoundClass("x", 2, Fraction(1)),
            BoundFamily("g", 3, Fraction(2), Fraction(3), 4),
        ),
    )
    expanded = BoundInstructionSet(
        "exp",
        (BoundClass("x", 2, Fraction(1)),)
        + tuple(BoundClass(f"g{i}", 3, Fraction(2 + 3 * i)) for i in range(4)),
    )
    for y in (0.0, 0.1, 0.5, 1.0, 2.5):
        a = eval_characteristic(family, y)
        b = eval_characteristic(expanded, y)
        assert a == pytest.approx(b, rel=1e-13)
    ya = solve_capacity(family).capacity_bits
    yb = solve_capacity(expanded).capacity_bits
    assert abs(ya - yb) <= 1e-12


def test_single_term_family_equals_class():
    fam = BoundInstructionSet("f", (BoundFamily("g", 5, Fraction(2), Fraction(1), 1),))
    cls = classes((5, 2))
    assert abs(
        solve_capacity(fam).capacity_bits - solve_capacity(cls).capacity_bits
    ) <= 1e-12


def test_adding_class_never_decreases_capacity():
    rng = random.Random(0xADD)
    for _ in range(10):
        pairs = [(rng.randint(1, 100), rng.randint(1, 16)) for _ in range(3)]
        before = solve_capacity(classes(*pairs)).capacity_bits
        pairs.append((rng.randint(1, 100), rng.randint(1, 16)))
        after = solve_capacity(classes(*pairs)).capacity_bits
        assert after >= before - 1e-11


def test_slower_instruction_never_increases_capacity():
    rng = random.Random(0x51)
    for _ in range(10):
        pairs = [[rng.randint(1, 100), rng.randint(1, 16)] for _ in range(3)]
        before = solve_capacity(classes(*map(tuple, pairs))).capacity_bits
        pairs[rng.randrange(3)][1] += rng.randint(1, 8)
        after = solve_capacity(classes(*map(tuple, pairs))).capacity_bits
        assert after <= before + 1e-11


@pytest.mark.parametrize("lam", [2, 3, 10])
def test_time_scaling_divides_capacity(lam):
    rng = random.Random(100 + lam)
    for _ in range(6):
        pairs = [(rng.randint(2, 200), rng.randint(1, 12)) for _ in range(3)]
        base = solve_capacity(classes(*pairs)).capacity_bits
        scaled = solve_capacity(
            classes(*((n, t * lam) for n, t in pairs))
        ).capacity_bits
        assert scaled * lam == pytest.approx(base, rel=1e-10)


def _one_member(member, y):
    """(log2 weight, mean time) of `member` from a one-member column pass."""
    values, means = member_points(compile_columns((member,)), y)
    return values[0], means[0]


def test_class_mean_time_is_its_time():
    c = BoundClass("a", 4, Fraction(7, 2))
    assert _one_member(c, 1.3)[1] == 3.5


def test_family_mean_time_limits():
    fam = BoundFamily("g", 1, Fraction(1), Fraction(2), 11)
    # unweighted (y = 0): the arithmetic mean of 1, 3, ..., 21
    assert _one_member(fam, 0.0)[1] == pytest.approx(11.0, abs=1e-12)
    # strong weighting pushes the mean toward the fastest term
    assert _one_member(fam, 50.0)[1] == pytest.approx(1.0, abs=1e-9)


def test_family_log2_weight_at_zero():
    fam = BoundFamily("g", 6, Fraction(1), Fraction(2), 10)
    assert _one_member(fam, 0.0)[0] == pytest.approx(math.log2(60), abs=1e-13)


def test_huge_family_uses_closed_form():
    # 2^25 + 1 terms evaluate instantly and match the geometric-series value
    fam = BoundInstructionSet(
        "mv", (BoundFamily("move", 2**25, Fraction(1), Fraction(2), 2**25 + 1),)
    )
    expected = 2**25 * 0.5 * (4.0 / 3.0)  # sum 2^-(1+2F) -> (1/2)/(1 - 1/4)
    assert eval_characteristic(fam, 1.0) == pytest.approx(expected, rel=1e-12)


def _log2_g(iset, y):
    """log2 g(y) summed here from the per-member weights."""
    return math.log2(sum(2.0 ** _one_member(m, y)[0] for m in iset.members))


def _random_classes(seed: int) -> BoundInstructionSet:
    rng = random.Random(seed)
    return classes(*((rng.randint(1, 1000), Fraction(rng.randint(1, 300), 10)) for _ in range(5)))


SOLVE_CASES = {
    "toy": TOY,
    "three-class": classes((7, 3), (2, 1), (1, 8)),
    "mix": bound_model("mix.json"),
    **{f"mmix-{mu}": bound_model("mmix.json", mu=mu) for mu in ("1", "6/5", "2", "5")},
    "family": BoundInstructionSet(
        "fam", (BoundClass("x", 2, Fraction(1)), BoundFamily("g", 3, Fraction(2), Fraction(3), 4))
    ),
    # a family of 2^608 terms, past the 2^512 where n * n overflows in
    # _geom's series branch; tests/test_cli.py checks its root against mpmath
    "g2": BoundInstructionSet("g2", (
        BoundFamily("f", 1, Fraction(1), Fraction("1e-200"), 2**608),
        BoundClass("b", 2**300, Fraction(1, 2)),
    )),
    **{f"random-{seed}": _random_classes(seed) for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("iset", SOLVE_CASES.values(), ids=SOLVE_CASES.keys())
def test_root_certified_by_sign_change(iset):
    result = solve_capacity(iset)
    y, width = result.capacity_bits, result.bracket_width
    assert result.residual <= 1e-10
    assert width <= max(solver.TOLERANCE, math.ulp(y))
    if width == 0.0:  # log2 g(y) evaluated to exactly 0
        assert result.residual == 0.0
        return
    # the returned root is one end of the certified interval
    right_of_root = _log2_g(iset, y - width) > 0.0 >= _log2_g(iset, y)
    left_of_root = _log2_g(iset, y) > 0.0 >= _log2_g(iset, y + width)
    assert right_of_root or left_of_root


def test_certified_root_is_the_closer_end():
    # the last Newton step rounds past the root, so certification lands on
    # the neighbour one float spacing away, where |log2 g| is smaller
    iset = BoundInstructionSet(
        "t", (BoundClass("a", 2, Fraction("1e-6")), BoundClass("b", 3 * 2**40, Fraction("1e-6")))
    )
    result = solve_capacity(iset)
    y = result.capacity_bits
    assert abs(y - math.log2(3 * 2**40 + 2) * 1e6) <= math.ulp(y)
    assert result.bracket_width == math.ulp(y)
    columns = solver.bound_columns(iset)
    f = solver._log2_char(columns, y)[0]
    ends = [y - result.bracket_width, y + result.bracket_width]
    (other,) = [end for end in ends if (solver._log2_char(columns, end)[0] > 0.0) != (f > 0.0)]
    assert abs(f) < abs(solver._log2_char(columns, other)[0])


def test_newton_iterations_on_reference_models():
    for iset in (TOY, bound_model("mix.json"), bound_model("mmix.json", mu="6/5")):
        assert solve_capacity(iset).iterations <= 12


def _certified_start(columns):
    """The start solve_compiled climbs from: the largest one-member root
    less its warm_slack, or 0 where that is not positive and finite."""
    top = max(a / t for a, t in zip(columns[0], columns[1]))
    y = top - solver.warm_slack(top)
    return y if 0.0 < y < math.inf else 0.0


# solve_capacity's results, climbing from the largest one-member root
CERTIFIED_START = {
    "toy": (TOY, solver.CapacityResult(1.271553303163612, 3.84773979655831e-17, 9.99866855977416e-13, 6)),
    "mix": (
        bound_model("mix.json"),
        solver.CapacityResult(28.169925002503934, 2.501030867762901e-16, 9.947598300641403e-13, 4),
    ),
    "mmix": (
        bound_model("mmix.json", mu="6/5"),
        solver.CapacityResult(31.11894107286867, 1.894694976496866e-16, 9.947598300641403e-13, 3),
    ),
}


@pytest.mark.parametrize("name", list(CERTIFIED_START))
def test_solve_starts_at_the_largest_one_member_root(name):
    iset, expected = CERTIFIED_START[name]
    columns = solver.bound_columns(iset)
    assert solve_capacity(iset) == expected
    assert solver.solve_compiled(columns, name) == expected
    assert 0.0 < _certified_start(columns) <= expected.capacity_bits
    assert solver._log2_char(columns, _certified_start(columns))[0] >= 0.0


def test_root_below_reads_the_sign_of_log2_g():
    columns = solver.bound_columns(TOY)
    root = solve_capacity(TOY).capacity_bits
    assert solver.root_below(columns, root + 1e-9)
    assert not solver.root_below(columns, 0.0)
    starts = [root + k * math.ulp(root) for k in range(-4, 5)]
    starts += [0.5 * root, root - 1e-9, root + 1e-9, 2 * root]
    for start in starts:
        assert solver.root_below(columns, start) == (solver._log2_char(columns, start)[0] < 0.0)


@pytest.mark.parametrize("iset", SOLVE_CASES.values(), ids=SOLVE_CASES.keys())
def test_log2_g_is_not_negative_at_the_certified_start(iset):
    columns = solver.bound_columns(iset)
    start = _certified_start(columns)
    assert solver._log2_char(columns, start)[0] >= 0.0
    assert start <= solve_capacity(iset).capacity_bits


def test_a_start_where_log2_g_rounds_negative_climbs_from_zero(monkeypatch):
    # No input is known to round below 0 at the certified start, so the
    # first evaluation is made to read as if it had
    columns = solver.bound_columns(TOY)
    log2_char, points = solver._log2_char, []

    def rounded_below_at_the_start(columns, y):
        points.append(y)
        f, slope = log2_char(columns, y)
        return (-1e-17 if len(points) == 1 else f), slope

    monkeypatch.setattr(solver, "_log2_char", rounded_below_at_the_start)
    result = solver.solve_compiled(columns, "toy")
    assert points[:2] == [_certified_start(columns), 0.0]
    assert result.iterations == len(points)
    assert abs(result.capacity_bits - LOG2_SILVER) <= 1e-12


def test_geom_mean_index_stays_finite_past_two_to_the_512_terms():
    # u * terms is 4.4e-13, in the series branch, where terms**2 overflows
    n = 2**608
    log2_sum, mean_index = solver._geom(4.2e-196, solver._float(n), n)
    assert log2_sum == pytest.approx(608.0, abs=1e-9)
    assert math.isfinite(mean_index)
    assert mean_index == pytest.approx(n / 2, rel=1e-12)


@pytest.mark.parametrize("terms", ["1*2^25", "1*2^60", "1*2^2000"])
def test_huge_family_terms_solve(terms):
    # 2^-y * (1 - 2^-(terms*y)) / (1 - 2^-y) = 1: the tail term is below
    # float resolution near the root, so the root is y = 1.
    model = {
        "name": "huge",
        "classes": [
            {"name": "g", "count": 1, "time": 1, "family": {"step": 1, "terms": terms}}
        ],
    }
    result = solve_capacity(bind(parse_model(json.dumps(model)), ParameterBinding()))
    assert abs(result.capacity_bits - 1.0) <= 1e-12
    assert result.residual <= 1e-10


def test_wide_family_is_refused_today_though_its_root_is_a_float():
    # Pins today's refusal.  Past 2^1023 terms the family's mean index is
    # inf at y = 0, so the slope is -inf, Newton cannot move, and
    # certification creeps by one tolerance per iteration: the cap is
    # reached far below the root, which is a float, between
    # 9.999999999999998e300 and 9.999999999999999e300.
    model = {
        "name": "wide",
        "classes": [
            {"name": "a", "count": 1, "time": "1e-301",
             "family": {"step": "1e-301", "terms": "1*2^2000"}},
            {"name": "b", "count": 1, "time": 1},
        ],
    }
    iset = bind(parse_model(json.dumps(model)), ParameterBinding())
    message = "set 'wide': no root found in 10000 iterations at float precision"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_capacity(iset)


def test_slope_leaves_out_a_vanished_weight_of_inf_mean_time():
    # At y = 0 the family's weight underflows to 0 beside the class's and
    # its mean index is inf; 0 * inf is nan, and that member adds nothing.
    # The climb starts near 5000, so only a direct evaluation reaches this.
    iset = _model({"name": "deep", "classes": [
        {"name": "a", "count": "1*2^5000", "time": 1},
        {"name": "g", "count": 1, "time": 1, "family": {"step": 1, "terms": "1*2^2000"}},
    ]})
    assert solver._log2_char(solver.bound_columns(iset), 0.0) == (5000.0, -1.0)


def test_steep_family_is_refused_today_though_its_root_is_a_float():
    # Pins today's refusal.  The root is 7.4046545394613556e-301, where
    # log2 g falls with a slope of several 1e300: across a certified
    # bracket 1e-12 wide it changes by about 1e288, so neither end passes
    # the residual.
    iset = _model({"name": "r", "classes": [
        {"name": "m0", "count": "5*2^0", "time": "4e300", "family": {"step": "2e300", "terms": "1*2^5000"}},
    ]})
    with pytest.raises(ValueError, match=re.escape("set 'r': residual above 1e-10 at float precision")):
        solve_capacity(iset)


@pytest.mark.parametrize(
    "iset, message",
    [
        (classes((2, Fraction("1e-320"))), "outside the float range"),
        (
            BoundInstructionSet(
                "far",
                (BoundClass("a", 2**1000000, Fraction("2.3e-308")), BoundClass("b", 1, Fraction(1))),
            ),
            re.escape("set 'far': the capacity lies outside the float range"),
        ),
        (
            # the capacity is at least log2(6 * 2^100) / 4e-307, about
            # 2.56e308: a Newton step lands past the largest float
            BoundInstructionSet(
                "r",
                (
                    BoundClass("m0", 6 * 2**100, Fraction("4e-307")),
                    BoundClass("m1", 7 * 2, Fraction("3e-300")),
                    BoundClass("m2", 7 * 2**1000, Fraction("8e100")),
                    BoundFamily("m3", 8 * 2**100, Fraction("9e-307"), Fraction(1), 2),
                ),
            ),
            re.escape("set 'r': the capacity lies outside the float range"),
        ),
    ],
    ids=["time-below-float-range", "root-above-float-range", "newton-step-past-float-range"],
)
def test_root_past_float_range_raises(iset, message):
    with pytest.raises(ValueError, match=message):
        solve_capacity(iset)


def test_root_far_above_two_to_the_sixty():
    result = solve_capacity(classes((2, Fraction("1e-300"))))
    assert result.capacity_bits == pytest.approx(1e300, rel=1e-12)
    assert result.residual <= 1e-10


def test_step_landing_past_the_float_range_of_g_continues(monkeypatch):
    # The largest one-member root, m1's, is about 7.3e-65, below its
    # warm_slack, so the climb starts at 0, where log2 g is 4879.  Its steps
    # are under tolerance/2 from the first, which lands where log2 g is
    # about 4866: g itself lies past the float range there, and its
    # residual must read as too large, not overflow.  The 60-digit
    # oracle's bisection of [0, 1] resolves a root this small only to its
    # 1e-12 bound.
    iset = _model({"name": "f", "classes": [
        {"name": "m0", "count": "1*2^2098", "time": "1e59"},
        {"name": "m1", "count": "1*2^4497", "time": "7e67", "family": {"step": "1e156", "terms": "1*2^382"}},
    ]})
    residual, seen = solver._residual, []
    monkeypatch.setattr(solver, "_residual", lambda f: seen.append(f) or residual(f))
    result = solve_capacity(iset)
    assert max(seen) == pytest.approx(4866.28, abs=0.01)
    assert result.capacity_bits == pytest.approx(2.098e-56, rel=1e-12)
    assert result.residual <= 1e-10
    assert result.iterations == 38


@pytest.mark.parametrize(
    "slow, expected",
    [(1, math.log2(3)), (2, LOG2_SILVER)],
    ids=["one-time", "toy-scaled"],
)
def test_tiny_root_needs_residual_before_stopping(slow, expected):
    # Every Newton step here is far below the tolerance, so stopping on
    # step size alone ends at once: at y = 0 (residual 2) if the step is
    # judged before it is taken, or, with two times, at the first landing
    # point, still far from the root.
    unit = Fraction(10**38)
    result = solve_capacity(classes((2, unit), (1, slow * unit)))
    assert result.capacity_bits == pytest.approx(expected / 1e38, rel=1e-12)
    assert result.residual <= 1e-10
    assert result.iterations <= 10


def _sixteenth(time) -> Fraction:
    return Fraction(time) / 16


# Each time is divided by 16, exactly in binary, so each iterate is 16 times
# what it is on the unscaled set, and the roots lie near 16,000-20,000,
# where a float spacing (3.6e-12) exceeds the 1e-12 tolerance.
@pytest.mark.parametrize(
    "iset",
    [
        classes(
            (32149693, _sixteenth(Fraction(16835, 849344))),
            (124259, _sixteenth(Fraction(422916, 58301))),
            (170634, _sixteenth(Fraction(575470, 5051))),
            (3, _sixteenth(Fraction(274317, 91))),
        ),
        BoundInstructionSet(
            "noisy",
            (
                BoundClass("c0", 3, _sixteenth(Fraction(864929, 40030))),
                BoundFamily(
                    "f1", 24710986352, _sixteenth(Fraction(282273, 72491)),
                    _sixteenth(Fraction(1, 7)), 62040757294,
                ),
                BoundClass("c2", 667099387489, _sixteenth(Fraction(31669, 817818))),
                BoundClass("c3", 25185452718, _sixteenth(147719)),
                BoundClass("c4", 262011613083, _sixteenth(Fraction(926231, 235099))),
                BoundClass("c5", 37251196935, _sixteenth(270405)),
                BoundClass("c6", 101, _sixteenth(Fraction(534638, 1711))),
            ),
        ),
    ],
    ids=["one-spacing-steps", "two-spacing-steps"],
)
def test_root_below_float_spacing_terminates(iset):
    # Where a float spacing exceeds the tolerance, rounding in log2 g makes
    # Newton steps hop across the root by one or two spacings; the solve
    # must still stop with a certified root.
    result = solve_capacity(iset)
    y = result.capacity_bits
    assert math.ulp(y) > solver.TOLERANCE
    assert result.residual <= 1e-10
    assert result.bracket_width <= math.ulp(y)
    assert result.iterations <= 20


@pytest.mark.parametrize("time", ["1e-400", "1e-320", "1e400"])
def test_time_outside_float_range_raises(time):
    # 1e-400 would round to 0.0 and 1e-320 to an imprecise subnormal; the
    # exact root of {1 @ 1e-400, 1 @ 1} is near 1,320, not the 54.3 that a
    # zero time gives.  1e400 has no float at all.
    with pytest.raises(ValueError, match="'c0' lies outside the float range"):
        solve_capacity(classes((1, Fraction(time)), (1, 1)))


@pytest.mark.parametrize("step", ["1e-400", "1e400"])
def test_family_step_outside_float_range_raises(step):
    family = BoundFamily("f", 1, Fraction(1), Fraction(step), 3)
    with pytest.raises(ValueError, match="^step of 'f' lies outside the float range"):
        solve_capacity(BoundInstructionSet("s", (family, BoundClass("c", 1, Fraction(1)))))


@pytest.mark.parametrize(
    "members",
    [
        (BoundClass("a", 0, Fraction(1)),),
        (
            BoundClass("c", 1, Fraction(1)),
            BoundFamily("a", 0, Fraction(1), Fraction(1), 3),
            BoundClass("b", -1, Fraction(1)),
        ),
    ],
    ids=["class", "family-second"],
)
def test_a_hand_built_count_below_one_is_named(members):
    # the first member at fault, in member order, and not math.log2's bare
    # "math domain error"
    with pytest.raises(ValueError, match="^count of 'a' must be >= 1$"):
        solve_capacity(BoundInstructionSet("s", members))


def _float_time_reference(value: Fraction) -> float:
    """time_as_float written with float(value)."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not sys.float_info.min <= result <= sys.float_info.max:
        raise ValueError("time of 't' lies outside the float range [2.225e-308, 1.798e+308]")
    return result


def test_time_as_float_is_the_float_of_the_fraction():
    # the quotient of numerator and denominator is the correctly rounded
    # float that float(value) gives, and overflows where it does
    most, past = Fraction(sys.float_info.max), Fraction(2**970)  # max + 2**970 rounds to 2**1024
    rng = random.Random(33)
    spans = [(rng.randint(1, 12000), rng.randint(1, 12000)) for _ in range(300)]
    for value in [
        most, most - 1, most + past - 1, most + Fraction(1, 3), most + past, Fraction(2**1024),
        Fraction(10) ** 400, Fraction(sys.float_info.min), Fraction(2**1023 - 1, 2**2045),
        Fraction(1, 2**1074), Fraction(10) ** -320, Fraction(1, 10**400), Fraction(1, 3),
        Fraction(7 * 10**3000 + 1, 10**3000), Fraction(3**6000 + 1, 3**6000 * 22),
        1.5, 5e-324, sys.float_info.max, 3,  # a hand-built bound set may hold a float or int
        *(Fraction(rng.getrandbits(a) + 1, rng.getrandbits(b) + 1) for a, b in spans),
    ]:
        try:
            expected = _float_time_reference(value)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                solver.time_as_float(value, "t")
        else:
            assert solver.time_as_float(value, "t") == expected


def _decimal_root(iset: BoundInstructionSet) -> Decimal:
    """Root of ln g(y) = 0 by bisection at 60 digits.  A class is a family
    of one term.  A member's ln weight is ln count - x0 + ln S, at x0 =
    time * y * ln 2, where S is its closed geometric sum at x = step * y *
    ln 2, taken as ln(1 + (S - 1)) with S - 1 = e**(-x) * (1 - e**(-(n-1)*x))
    / (1 - e**(-x)); ln g adds ln(1 + rest) to the largest ln weight, rest
    being the others' weights relative to it.  So no weight near 1 is
    rounded before its excess or deficit is taken: a member of one
    instruction at time 1e-50 weighs about 1 - 1e-48 near its root.
    1 - e**(-x) is summed as its series below x = 1, and ln(1 + u) below
    u = 0.01, where the subtraction would cancel (g2's ratio e**(-x) is
    about 1 - 4e-198)."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        runs = [
            (Decimal(m.count).ln(), m.time, Fraction(0), 1) if isinstance(m, BoundClass)
            else (Decimal(m.count_per_term).ln(), m.time_base, m.step, m.num_terms)
            for m in iset.members
        ]

        def series(term, ratio):
            """term + term * ratio(1) + ... for ratio(k) the k-th ratio."""
            total, k = Decimal(0), 1
            while term.copy_abs() > total.copy_abs() * Decimal("1e-62"):
                total += term
                term *= ratio(k)
                k += 1
            return total

        def one_minus_exp(x):
            if x >= 1:
                return 1 - (-x).exp()
            return series(x, lambda k: -x / (k + 1))

        def log1p(u):
            if u >= Decimal("0.01"):
                return (1 + u).ln()
            return series(u, lambda k: -u * k / (k + 1))

        def ln_g(y):
            logs = []
            for ln_count, first, step, terms in runs:
                ln_weight = ln_count - first.numerator * y * ln2 / first.denominator
                if terms > 1:
                    x = step.numerator * y * ln2 / step.denominator
                    ln_weight += log1p((-x).exp() * one_minus_exp((terms - 1) * x) / one_minus_exp(x))
                logs.append(ln_weight)
            top = logs.pop(logs.index(max(logs)))
            return top + log1p(sum(((w - top).exp() for w in logs), Decimal(0)))

        lo, hi = Decimal(0), Decimal(1)
        while ln_g(hi) > 0:
            lo, hi = hi, 2 * hi
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if ln_g(mid) > 0 else (lo, mid)
        return lo


@pytest.mark.parametrize("eps", ["1e-10", "1e-14", "1e-16", "1e-20", "1e-30"])
def test_fast_class_beside_a_slow_one(eps):
    # Near the root the slow class's weight is below the rounding of the
    # fast one's, so g must not be summed as 1 + rest before its logarithm.
    iset = classes((1, Fraction(eps)), (1, 1))
    result = solve_capacity(iset)
    assert abs(result.capacity_bits - float(_decimal_root(iset))) <= 2e-12
    assert result.residual <= 1e-10
    assert result.iterations <= 100


# Sets with one weight within 1e-9 of 1 at the root, where log2 g sums a
# few tiny terms: _log2_g above cannot resolve them, the oracle can.
NEAR_ONE_CASES = {
    # one instruction weighs 1 - 1e-48 beside two that make up the deficit
    "near-one-class": classes((1, Fraction("1e-50")), (2, 1)),
    # the closed sum 1 + e**-u, u = 20: log(1 - e**-u) kept half its digits
    "near-one-family": BoundInstructionSet("n", (BoundFamily("f", 1, Fraction("1e-10"), Fraction(1), 2),)),
}


# Models at float edges of the climb.
FLOAT_EDGE_CASES = {
    # a climb from 0 ran out of iterations; from the largest one-member
    # root it certifies 5.358589635130401e+102
    "r2": _model({"name": "r", "classes": [
        {"name": "m0", "count": "1*2^1", "time": "7e10", "family": {"step": "2e100", "terms": "1*2^1"}},
        {"name": "m1", "count": "6*2^10", "time": "3e-10"},
        {"name": "m2", "count": "8*2^2000", "time": "5e-100", "family": {"step": "7e-307", "terms": "1*2^2000"}},
    ]}),
    # both one-member roots are 0, so the climb starts there; below y =
    # 8e-9 the family's mean index is inf, so Newton's steps are 0 and
    # certification creeps one tolerance an iteration, for 8,035 of the
    # 10,000 allowed
    "creep": _model({"name": "creep", "classes": [
        {"name": "a", "count": 1, "time": 1, "family": {"step": "1e-300", "terms": "1*2^2000"}},
        {"name": "b", "count": 1, "time": 1},
    ]}),
}


@pytest.mark.parametrize(
    "iset",
    [*SOLVE_CASES.values(), *NEAR_ONE_CASES.values(), *FLOAT_EDGE_CASES.values()],
    ids=[*SOLVE_CASES, *NEAR_ONE_CASES, *FLOAT_EDGE_CASES],
)
def test_root_matches_the_60_digit_oracle(iset):
    y = solve_capacity(iset).capacity_bits
    assert abs(y - float(_decimal_root(iset))) <= max(1e-12, 4 * math.ulp(y))


# --- the column kernel against a per-member reference ---


def _reference_point(member, y):
    """(log2 weight, mean time) of one member, evaluated on its own.

    It shares only the closed geometric sum (_geom) with the solver, so
    the comparisons below pin the kernel's layout and order of operations.
    """
    if isinstance(member, BoundClass):
        return math.log2(member.count) - float(member.time) * y, float(member.time)
    log2_count, time, step = math.log2(member.count_per_term), float(member.time_base), float(member.step)
    if member.num_terms == 1:
        return log2_count - time * y, time
    terms = member.num_terms
    log2_sum, mean_index = solver._geom(math.log(2.0) * step * y, solver._float(terms), terms)
    return log2_count - time * y + log2_sum, time + step * mean_index


def _reference_log2_char(members, y):
    """(log2 g, slope) aggregated member by member, in member order."""
    points = [_reference_point(m, y) for m in members]
    hi = max(value for value, _ in points)
    weights = [2.0 ** (value - hi) for value, _ in points]
    mean = sum(w * time for w, (_, time) in zip(weights, points))
    weights[weights.index(1.0)] = 0.0
    rest = sum(weights)
    return hi + math.log1p(rest) / math.log(2.0), -mean / (1.0 + rest)


def _family(name, count, base, step, terms):
    return BoundFamily(name, count, Fraction(base), Fraction(step), terms)


COLUMN_SETS = {
    "classes": [BoundClass(f"c{i}", 3 * i + 1, Fraction(2 * i + 1, 3)) for i in range(9)],
    "family-first": [_family("f", 5, 1, "1/2", 40), BoundClass("a", 3, Fraction(2)), BoundClass("b", 1, Fraction(7, 3))],
    "family-middle": [BoundClass("a", 3, Fraction(2)), _family("f", 5, 1, "1/2", 40), BoundClass("b", 1, Fraction(7, 3))],
    "family-last": [BoundClass("a", 3, Fraction(2)), BoundClass("b", 1, Fraction(7, 3)), _family("f", 5, 1, "1/2", 40)],
    "families": [_family("f", 5, 1, "1/2", 40), _family("g", 2, "3/2", 3, 7), _family("h", 1, 4, "1/9", 1)],
    "single": [BoundClass("a", 6, Fraction(5, 2))],
    "2^25-terms": [_family("mv", 2**25, 1, 2, 2**25 + 1), BoundClass("a", 9, Fraction(3))],
    # u = ln 2 * step * y passes 690 from y = 1 on, where e**u - 1
    # overflows and _geom takes phi(u) in its decaying form
    "past-690": [_family("w", 2, 1, 1000, 5), BoundClass("a", 3, Fraction(2))],
    # u * terms stays below 1e-3 at every y tested, the root included: the
    # series branch of the mean index
    "series": [_family("s", 3, 2, "1/1000000", 100), BoundClass("a", 2, Fraction(1))],
}


@pytest.mark.parametrize("members", COLUMN_SETS.values(), ids=COLUMN_SETS.keys())
def test_column_kernel_equals_the_per_member_reference(members):
    columns = solver.compile_columns(members)
    root = solve_capacity(BoundInstructionSet("cols", tuple(members))).capacity_bits
    for y in (0.0, 1e-9, 0.37, 1.0, 6.5, root):
        assert solver._log2_char(columns, y) == _reference_log2_char(members, y)
        points = [_reference_point(m, y) for m in members]
        assert list(zip(*solver.member_points(columns, y))) == points
        assert [_one_member(m, y) for m in members] == points


@pytest.mark.parametrize("members", COLUMN_SETS.values(), ids=COLUMN_SETS.keys())
def test_distribution_masses_are_the_reference_weights_at_the_root(members):
    iset = BoundInstructionSet("cols", tuple(members))
    cap = solve_capacity(iset)
    masses = optimal_distribution(iset, cap).masses
    assert masses == {m.name: 2.0 ** _reference_point(m, cap.capacity_bits)[0] for m in members}


# --- the compile cache: one compile per bound set ---


def _counting_compiles(monkeypatch):
    calls = []
    compile_columns = solver.compile_columns

    def counted(members):
        calls.append(1)
        return compile_columns(members)

    monkeypatch.setattr(solver, "compile_columns", counted)
    return calls


def test_solve_and_distribution_share_one_compile(monkeypatch):
    calls = _counting_compiles(monkeypatch)
    iset = bound_model("mmix.json", mu="6/5")
    cap = solve_capacity(iset)
    optimal_distribution(iset, cap)
    eval_characteristic(iset, cap.capacity_bits)
    solve_capacity(iset)
    assert len(calls) == 1
    # an equal set built anew compiles for itself
    solve_capacity(bound_model("mmix.json", mu="6/5"))
    assert len(calls) == 2


def test_compile_cache_is_invisible_to_the_dataclass():
    fresh, used = bound_model("mix.json"), bound_model("mix.json")
    before = (repr(used), hash(used), dataclasses.asdict(used))
    optimal_distribution(used, solve_capacity(used))
    assert "_columns" in vars(used)
    assert used == fresh and fresh == used
    assert (repr(used), hash(used), dataclasses.asdict(used)) == before
    assert [f.name for f in dataclasses.fields(used)] == ["name", "members"]
    replaced = dataclasses.replace(used, name="other")
    assert "_columns" not in vars(replaced)
    assert replaced == BoundInstructionSet("other", used.members)


def test_replaced_members_are_compiled_anew():
    iset = classes((2, 1), (1, 2))
    solve_capacity(iset)
    faster = dataclasses.replace(iset, members=(BoundClass("c0", 2, Fraction(1)), BoundClass("c1", 1, Fraction(1))))
    assert solve_capacity(faster).capacity_bits == pytest.approx(math.log2(3))


@pytest.mark.parametrize("time", ["1e-400", "1e400"])
def test_a_set_that_does_not_compile_raises_on_every_call(monkeypatch, time):
    calls = _counting_compiles(monkeypatch)
    iset = classes((1, Fraction(time)), (1, 1))
    for call in (
        lambda: solve_capacity(iset),
        lambda: optimal_distribution(iset, solver.CapacityResult(1.0, 0.0, 0.0, 1)),
        lambda: eval_characteristic(iset, 1.0),
        lambda: solve_capacity(iset),
    ):
        with pytest.raises(ValueError, match="'c0' lies outside the float range"):
            call()
    assert len(calls) == 4
    assert "_columns" not in vars(iset)


@pytest.mark.parametrize(
    "iset",
    [TOY, bound_model("mix.json"), bound_model("mmix.json", mu="1")]
    + [BoundInstructionSet("cols", tuple(members)) for members in COLUMN_SETS.values()],
)
def test_cached_results_are_the_uncached_ones(iset):
    # the uncached path: compile the members for each call, as before the cache
    uncached = solver.solve_compiled(solver.compile_columns(iset.members), iset.name)
    log2_weights = solver.member_points(solver.compile_columns(iset.members), uncached.capacity_bits)[0]
    uncached_masses = {m.name: 2.0 ** w for m, w in zip(iset.members, log2_weights)}
    cap = solve_capacity(iset)
    assert repr(cap) == repr(uncached)
    assert repr(optimal_distribution(iset, cap).masses) == repr(uncached_masses)
    assert repr(solve_capacity(iset)) == repr(uncached)
