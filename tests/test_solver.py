import dataclasses
import json
import math
import random
import re
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


def test_eval_rejects_negative_argument():
    with pytest.raises(ValueError):
        eval_characteristic(TOY, -0.5)


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


# solve_capacity's results, climbing from y = 0; the default at_least must
# keep them to the last bit
CLIMB_FROM_ZERO = {
    "toy": (TOY, solver.CapacityResult(1.271553303163612, 3.84773979655831e-17, 9.99866855977416e-13, 6)),
    "mix": (
        bound_model("mix.json"),
        solver.CapacityResult(28.169925002503934, 2.501030867762901e-16, 9.947598300641403e-13, 10),
    ),
    "mmix": (
        bound_model("mmix.json", mu="6/5"),
        solver.CapacityResult(31.11894107286867, 1.894694976496866e-16, 9.947598300641403e-13, 6),
    ),
}


@pytest.mark.parametrize("name", list(CLIMB_FROM_ZERO))
def test_default_start_is_the_climb_from_zero(name):
    iset, expected = CLIMB_FROM_ZERO[name]
    columns = solver.bound_columns(iset)
    assert solve_capacity(iset) == expected
    assert solver.solve_compiled(columns, name) == expected
    assert solver.solve_compiled(columns, name, 0.0) == expected


def test_at_least_refuses_exactly_where_log2_g_is_negative():
    columns = solver.bound_columns(TOY)
    root = solve_capacity(TOY).capacity_bits
    assert solver.solve_compiled(columns, "toy", root + 1e-9) is None
    starts = [root + k * math.ulp(root) for k in range(-4, 5)]
    starts += [0.5 * root, root - 1e-9, root + 1e-9, 2 * root]
    for start in starts:
        refused = solver.solve_compiled(columns, "toy", start) is None
        assert refused == (solver._log2_char(columns, start)[0] < 0.0)


@pytest.mark.parametrize("iset", SOLVE_CASES.values(), ids=SOLVE_CASES.keys())
def test_climb_from_left_of_the_root_certifies_near_the_climb_from_zero(iset):
    columns = solver.bound_columns(iset)
    cold = solve_capacity(iset)
    y, tolerance = cold.capacity_bits, solver.TOLERANCE
    for start in (0.5 * y, y - 1e-3, y - 4 * tolerance):
        assert solver._log2_char(columns, start)[0] >= 0.0
        warm = solver.solve_compiled(columns, iset.name, start)
        assert abs(warm.capacity_bits - y) <= tolerance
        assert warm.residual <= 1e-10
        assert warm.bracket_width <= max(tolerance, math.ulp(warm.capacity_bits))
        assert warm.iterations <= cold.iterations


def test_geom_mean_index_stays_finite_past_two_to_the_512_terms():
    # u * terms is 4.4e-13, in the series branch, where terms**2 overflows
    n = 2**608
    log2_sum, mean_index = solver._geom(4.2e-196, n)
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


def test_wide_family_without_a_float_root_raises():
    # Past 2^1023 terms the family's mean index is inf at y = 0, so the
    # slope is -inf, Newton cannot move, and certification creeps by one
    # tolerance per iteration: the cap is reached far below the root.
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


def test_step_landing_past_the_float_range_of_g_continues():
    # At y = 0 log2 g is about 1830 and the slope about -1e100, so the
    # first step, under tolerance/2, lands where a's weight has vanished
    # and log2 g is about 1092: g itself lies past the float range there,
    # and its residual must read as too large, not overflow.
    iset = BoundInstructionSet(
        "ovf",
        (BoundClass("a", 2**1830, Fraction("1e100")), BoundClass("b", 2**1092, Fraction("1e-300"))),
    )
    result = solve_capacity(iset)
    assert result.capacity_bits == pytest.approx(1.092e303, rel=1e-12)
    assert result.residual <= 1e-10
    assert result.iterations == 4


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


def test_family_step_outside_float_range_raises():
    family = BoundFamily("f", 1, Fraction(1), Fraction("1e400"), 3)
    with pytest.raises(ValueError, match="'f' lies outside the float range"):
        solve_capacity(BoundInstructionSet("s", (family, BoundClass("c", 1, Fraction(1)))))


def _decimal_root(eps: str) -> Decimal:
    """Root of 2**(-eps*y) + 2**(-y) = 1 by bisection at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln2, e = Decimal(2).ln(), Decimal(eps)

        def g(y):
            return (-e * y * ln2).exp() + (-y * ln2).exp() - 1

        lo, hi = Decimal(0), Decimal(200)
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
        return lo


@pytest.mark.parametrize("eps", ["1e-10", "1e-14", "1e-16", "1e-20", "1e-30"])
def test_fast_class_beside_a_slow_one(eps):
    # Near the root the slow class's weight is below the rounding of the
    # fast one's, so g must not be summed as 1 + rest before its logarithm.
    result = solve_capacity(classes((1, Fraction(eps)), (1, 1)))
    assert abs(result.capacity_bits - float(_decimal_root(eps))) <= 2e-12
    assert result.residual <= 1e-10
    assert result.iterations <= 100


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
    log2_sum, mean_index = solver._geom(math.log(2.0) * step * y, member.num_terms)
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
