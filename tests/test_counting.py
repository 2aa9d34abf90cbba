import math
from fractions import Fraction

import pytest

from compucap import (
    BoundClass,
    BoundFamily,
    BoundInstructionSet,
    CountTable,
    CountingError,
    ParameterBinding,
    UnreachableTimeError,
    bind,
    capacity_estimate,
    count_sequences,
    data_path,
    parse_model,
    solve_capacity,
)

LOG2_SILVER = 1.2715533031636120
# N(64) for the two-speed set, computed independently of the package by
# running the linear recurrence in exact integer arithmetic.
N64 = 2684568892382786771291329


def classes(*pairs) -> BoundInstructionSet:
    members = tuple(
        BoundClass(f"c{i}", count, Fraction(time))
        for i, (count, time) in enumerate(pairs)
    )
    return BoundInstructionSet("test", members)


TOY = classes((2, 1), (1, 2))


def brute_force_counts(times: list[int], max_time: int) -> list[int]:
    """Count sequences by explicit depth-first enumeration."""
    counts = [0] * (max_time + 1)

    def walk(total: int) -> None:
        counts[total] += 1
        for t in times:
            if total + t <= max_time:
                walk(total + t)

    walk(0)
    return counts


def test_two_speed_prefix():
    table = count_sequences(TOY, 4)
    assert table.counts == (1, 2, 5, 12, 29)


def test_two_speed_matches_brute_force():
    table = count_sequences(TOY, 10)
    assert list(table.counts) == brute_force_counts([1, 1, 2], 10)


def test_family_matches_brute_force():
    iset = BoundInstructionSet(
        "f",
        (
            BoundClass("a", 1, Fraction(2)),
            BoundFamily("g", 2, Fraction(1), Fraction(2), 2),
        ),
    )
    table = count_sequences(iset, 10)
    assert list(table.counts) == brute_force_counts([2, 1, 1, 3, 3], 10)


def test_single_instruction_counts_are_all_one():
    table = count_sequences(classes((1, 1)), 5)
    assert table.counts == (1, 1, 1, 1, 1, 1)
    assert capacity_estimate(table, 5) == 0.0


def test_n64_exact_value_and_estimate_gap():
    table = count_sequences(TOY, 64)
    assert table.counts[64] == N64
    estimate = capacity_estimate(table, 64)
    assert abs(estimate - LOG2_SILVER) <= 0.01


def test_estimate_approaches_solver_from_bounded_gap():
    table = count_sequences(TOY, 256)
    solved = solve_capacity(TOY).capacity_bits
    gaps = [solved - capacity_estimate(table, t) for t in (32, 64, 128, 256)]
    assert all(gap > 0 for gap in gaps)
    assert gaps == sorted(gaps, reverse=True)  # narrows as T grows
    assert gaps[-1] < 0.001


def test_superadditivity():
    table = count_sequences(TOY, 64)
    for t1 in range(65):
        for t2 in range(65 - t1):
            assert table.counts[t1 + t2] >= table.counts[t1] * table.counts[t2]


def test_unreachable_time():
    table = count_sequences(classes((1, 2)), 5)
    assert table.counts == (1, 0, 1, 0, 1, 0)
    with pytest.raises(UnreachableTimeError, match="time 3"):
        capacity_estimate(table, 3)
    try:
        capacity_estimate(table, 5)
    except UnreachableTimeError as exc:
        assert exc.time == 5


@pytest.mark.parametrize("time", [2.5, True, -1], ids=["float", "bool", "negative"])
def test_count_time_must_be_a_non_negative_int(time):
    # a bool is not a count, so True does not count to 1
    with pytest.raises(ValueError, match=f"^max_time must be an int >= 0, got {time!r}$"):
        count_sequences(TOY, time)


@pytest.mark.parametrize("time", [1.5, True, 0, 5], ids=["float", "bool", "zero", "past-table"])
def test_a_table_time_must_be_an_int_in_the_table(time):
    table = count_sequences(TOY, 4)
    with pytest.raises(ValueError, match=f"^time must be an int in 1..4, got {time!r}$"):
        capacity_estimate(table, time)
    if time != 0:
        with pytest.raises(ValueError, match=f"^time {time!r} outside table range 0..4$"):
            table.count(time)


def test_rational_times_rejected_with_scale_hint():
    iset = classes((1, Fraction(3, 2)), (1, 2))
    with pytest.raises(CountingError, match="by 2") as info:
        count_sequences(iset, 4)
    assert info.value.suggested_scale == 2


def test_rational_family_step_rejected():
    iset = BoundInstructionSet(
        "f", (BoundFamily("g", 1, Fraction(1), Fraction(1, 3), 4),)
    )
    with pytest.raises(CountingError) as info:
        count_sequences(iset, 4)
    assert info.value.suggested_scale == 3


def test_scale_hint_rescale_round_trip():
    # applying the suggested factor makes the same set countable
    iset = classes((2, Fraction(1, 2)), (1, 1))
    with pytest.raises(CountingError) as info:
        count_sequences(iset, 4)
    scale = info.value.suggested_scale
    rescaled = classes((2, Fraction(1, 2) * scale), (1, 1 * scale))
    assert count_sequences(rescaled, 4).counts == (1, 2, 5, 12, 29)


def test_instructions_slower_than_max_time_are_ignored():
    with_slow = classes((2, 1), (1, 2), (5, 40))
    assert count_sequences(with_slow, 10).counts == count_sequences(TOY, 10).counts


def test_family_terms_beyond_max_time_are_ignored():
    iset = BoundInstructionSet(
        "f",
        (
            BoundClass("a", 2, Fraction(1)),
            BoundClass("b", 1, Fraction(2)),
            BoundFamily("g", 7, Fraction(20), Fraction(1), 1000),
        ),
    )
    assert count_sequences(iset, 10).counts == count_sequences(TOY, 10).counts


def test_limits_validated():
    with pytest.raises(ValueError):
        count_sequences(TOY, -1)
    with pytest.raises(CountingError, match="exceeds"):
        count_sequences(TOY, 100_001)
    # eleven families on the same 100,000 unit-step times: 1.1 M (member, time) terms
    wide = BoundInstructionSet(
        "wide",
        tuple(BoundFamily(f"f{i}", 1, Fraction(1), Fraction(1), 100_000) for i in range(11)),
    )
    with pytest.raises(
        CountingError, match=r"^more than 1000000 \(member, time\) terms at or below max_time$"
    ):
        count_sequences(wide, 100_000)


def test_estimate_argument_range():
    table = count_sequences(TOY, 8)
    with pytest.raises(ValueError):
        capacity_estimate(table, 0)
    with pytest.raises(ValueError):
        capacity_estimate(table, 9)


def test_count_table_validation():
    with pytest.raises(ValueError):
        CountTable(max_time=2, counts=(0, 1, 1))  # N(0) must be 1
    with pytest.raises(ValueError):
        CountTable(max_time=2, counts=(1, 1))
    with pytest.raises(ValueError, match="counts must be non-negative"):
        CountTable(max_time=1, counts=(1, -1))
    table = CountTable(max_time=2, counts=(1, 2, 5))
    assert table.count(2) == 5
    with pytest.raises(ValueError):
        table.count(3)


def test_big_integer_logarithm_accuracy():
    # growth estimate for s copies of a unit-time instruction is log2(s):
    # at T = 400 the table entry is s**400, far beyond float range
    table = count_sequences(classes((3, 1)), 400)
    assert table.counts[400] == 3**400
    assert capacity_estimate(table, 400) == pytest.approx(math.log2(3), abs=1e-12)


@pytest.mark.parametrize(
    "name, params",
    [
        ("toy.json", {}),
        ("mix.json", {}),
        ("mmix.json", {"mu": 1}),
        ("mmix.json", {"mu": 2}),
    ],
    ids=["toy", "mix", "mmix-mu1", "mmix-mu2"],
)
def test_count_ratio_matches_solver_to_float_precision(name, params):
    # N(T)/N(T-1) -> X0 geometrically, far faster than log2 N(T)/T does,
    # and int / int is correctly rounded, so no big-integer log is needed.
    bound = bind(parse_model(data_path(name).read_text()), ParameterBinding(params))
    counts = count_sequences(bound, 128).counts
    ratio_bits = math.log2(counts[128] / counts[127])
    assert abs(ratio_bits - solve_capacity(bound).capacity_bits) <= 1e-12


def test_scale_past_the_digit_limit_names_the_member():
    # the message cannot print a 4,301-digit scale; it abbreviates it and
    # names the member whose denominator makes it, and the exact scale
    # stays on the error
    iset = classes((2, Fraction(1, 3)), (1, Fraction("1e-4300")), (1, 1))
    with pytest.raises(CountingError) as info:
        count_sequences(iset, 3)
    assert str(info.value) == (
        "counting needs integer times; multiplying every time by "
        "3000000000...0000000000 (4301 digits) would make them integers; the time "
        "of 'c1' has the denominator 1000000000...0000000000 (4301 digits)"
    )
    assert info.value.suggested_scale == 3 * 10**4300


def test_long_scale_is_abbreviated_below_the_digit_limit():
    # a 301-digit scale prints, but as brief_int's form, once, beside the
    # member whose denominator makes it
    iset = classes((1, Fraction("1e-300")), (1, 1))
    with pytest.raises(CountingError) as info:
        count_sequences(iset, 3)
    assert str(info.value) == (
        "counting needs integer times; multiplying every time by "
        "1000000000...0000000000 (301 digits) would make them integers; the time "
        "of 'c0' has the denominator 1000000000...0000000000 (301 digits)"
    )
    assert info.value.suggested_scale == 10**300


def test_printable_scale_message_is_unchanged():
    iset = classes((1, Fraction(3, 2)), (1, Fraction(1, 3)))
    with pytest.raises(CountingError) as info:
        count_sequences(iset, 4)
    assert str(info.value) == (
        "counting needs integer times; multiplying every time by 6 would make "
        "them integers (and divide the resulting capacity estimate's time unit by 6)"
    )
