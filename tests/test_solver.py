import json
import math
import random
from fractions import Fraction

import pytest

from compucap import (
    BoundClass,
    BoundFamily,
    BoundInstructionSet,
    ParameterBinding,
    bind,
    data_path,
    eval_characteristic,
    member_log2_weight,
    member_mean_time,
    parse_model,
    solve_capacity,
)

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
        result = solve_capacity(iset, 1e-12)
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


def test_tolerance_range_enforced():
    with pytest.raises(ValueError):
        solve_capacity(TOY, 1e-14)
    with pytest.raises(ValueError):
        solve_capacity(TOY, 1e-5)


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


def test_member_mean_time_class_is_its_time():
    c = BoundClass("a", 4, Fraction(7, 2))
    assert member_mean_time(c, 1.3) == 3.5


def test_member_mean_time_family_limits():
    fam = BoundFamily("g", 1, Fraction(1), Fraction(2), 11)
    # unweighted (y = 0): the arithmetic mean of 1, 3, ..., 21
    assert member_mean_time(fam, 0.0) == pytest.approx(11.0, abs=1e-12)
    # strong weighting pushes the mean toward the fastest term
    assert member_mean_time(fam, 50.0) == pytest.approx(1.0, abs=1e-9)


def test_member_log2_weight_family_at_zero():
    fam = BoundFamily("g", 6, Fraction(1), Fraction(2), 10)
    assert member_log2_weight(fam, 0.0) == pytest.approx(math.log2(60), abs=1e-13)


def test_huge_family_uses_closed_form():
    # 2^25 + 1 terms evaluate instantly and match the geometric-series value
    fam = BoundInstructionSet(
        "mv", (BoundFamily("move", 2**25, Fraction(1), Fraction(2), 2**25 + 1),)
    )
    expected = 2**25 * 0.5 * (4.0 / 3.0)  # sum 2^-(1+2F) -> (1/2)/(1 - 1/4)
    assert eval_characteristic(fam, 1.0) == pytest.approx(expected, rel=1e-12)


def _log2_g(iset, y):
    """log2 g(y) summed here from the per-member weights."""
    return math.log2(sum(2.0 ** member_log2_weight(m, y) for m in iset.members))


@pytest.mark.parametrize(
    "iset",
    [
        TOY,
        classes((7, 3), (2, 1), (1, 8)),
        bound_model("mix.json"),
        bound_model("mmix.json", mu="6/5"),
    ],
    ids=["toy", "three-class", "mix", "mmix"],
)
@pytest.mark.parametrize("tolerance", [1e-13, 1e-12, 1e-6])
def test_root_certified_by_sign_change(iset, tolerance):
    result = solve_capacity(iset, tolerance)
    y, width = result.capacity_bits, result.bracket_width
    assert result.residual <= 1e-10
    assert width <= max(tolerance, math.ulp(y))
    if width == 0.0:  # log2 g(y) evaluated to exactly 0
        assert result.residual == 0.0
        return
    # the returned root is one end of the certified interval
    right_of_root = _log2_g(iset, y - width) > 0.0 >= _log2_g(iset, y)
    left_of_root = _log2_g(iset, y) > 0.0 >= _log2_g(iset, y + width)
    assert right_of_root or left_of_root


def test_newton_iterations_on_reference_models():
    for iset in (TOY, bound_model("mix.json"), bound_model("mmix.json", mu="6/5")):
        assert solve_capacity(iset).iterations <= 12


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


def test_root_past_float_range_raises():
    with pytest.raises(ValueError, match="outside the float range"):
        solve_capacity(classes((2, Fraction("1e-320"))))


def test_root_far_above_two_to_the_sixty():
    result = solve_capacity(classes((2, Fraction("1e-300"))))
    assert result.capacity_bits == pytest.approx(1e300, rel=1e-12)
    assert result.residual <= 1e-10


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


@pytest.mark.parametrize(
    "iset",
    [
        classes(
            (32149693, Fraction(16835, 849344)),
            (124259, Fraction(422916, 58301)),
            (170634, Fraction(575470, 5051)),
            (3, Fraction(274317, 91)),
        ),
        BoundInstructionSet(
            "noisy",
            (
                BoundClass("c0", 3, Fraction(864929, 40030)),
                BoundFamily(
                    "f1", 24710986352, Fraction(282273, 72491), Fraction(1, 7), 62040757294
                ),
                BoundClass("c2", 667099387489, Fraction(31669, 817818)),
                BoundClass("c3", 25185452718, Fraction(147719)),
                BoundClass("c4", 262011613083, Fraction(926231, 235099)),
                BoundClass("c5", 37251196935, Fraction(270405)),
                BoundClass("c6", 101, Fraction(534638, 1711)),
            ),
        ),
    ],
    ids=["one-spacing-steps", "two-spacing-steps"],
)
def test_root_below_float_spacing_terminates(iset):
    # Roots near 1000 have a float spacing above the 1e-13 tolerance, and
    # rounding in log2 g makes Newton steps hop across the root by one or
    # two spacings; the solve must still stop with a certified root.
    result = solve_capacity(iset, 1e-13)
    y = result.capacity_bits
    assert result.residual <= 1e-10
    assert result.bracket_width <= math.ulp(y)
    assert result.iterations <= 20
