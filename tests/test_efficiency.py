import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

import compucap.efficiency as efficiency_module
from compucap import (
    BoundClass,
    BoundFamily,
    BoundInstructionSet,
    DistributionError,
    InstructionDistribution,
    TraceError,
    TraceStatistics,
    data_path,
    efficiency_from_distribution,
    efficiency_from_trace,
    entropy_order_n,
    instantiate,
    optimal_distribution,
    parse_problem,
    parse_trace,
    solve_capacity,
)

LOG2_SILVER = 1.2715533031636120
SQRT2_M1 = 0.41421356237309503  # sqrt(2) - 1 = 1/X0 for the two-speed set


def classes(*pairs) -> BoundInstructionSet:
    members = tuple(
        BoundClass(f"c{i}", count, Fraction(time))
        for i, (count, time) in enumerate(pairs)
    )
    return BoundInstructionSet("test", members)


def two_speed() -> BoundInstructionSet:
    return BoundInstructionSet(
        "toy", (BoundClass("fast", 2, Fraction(1)), BoundClass("slow", 1, Fraction(2)))
    )


def plug_in_entropy_per_member(iset, dist) -> float:
    """Order-0 entropy of a class-only distribution, computed from scratch."""
    acc = 0.0
    for member in iset.members:
        mass = dist.mass(member.name)
        if mass == 0.0:
            continue
        p = mass / member.count
        acc -= member.count * p * math.log2(p)
    return acc


# --- optimal distribution ---


def test_optimal_two_unit_instructions_split_evenly():
    iset = classes((2, 1))
    dist = optimal_distribution(iset, solve_capacity(iset))
    assert dist.mass("c0") == pytest.approx(1.0, abs=1e-12)
    assert dist.instruction_probability(1) == pytest.approx(0.5, abs=1e-12)


def test_optimal_two_speed_masses():
    iset = two_speed()
    dist = optimal_distribution(iset, solve_capacity(iset))
    assert dist.mass("fast") == pytest.approx(2 * SQRT2_M1, abs=1e-12)
    assert dist.mass("slow") == pytest.approx(SQRT2_M1**2, abs=1e-12)
    assert dist.instruction_probability(1) == pytest.approx(SQRT2_M1, abs=1e-12)
    assert dist.instruction_probability(2) == pytest.approx(SQRT2_M1**2, abs=1e-12)
    assert dist.log2_x0 == pytest.approx(LOG2_SILVER, abs=1e-12)


def test_optimal_single_instruction():
    iset = classes((1, 5))
    dist = optimal_distribution(iset, solve_capacity(iset))
    assert dist.mass("c0") == 1.0


def test_optimal_masses_sum_to_one_on_random_sets():
    rng = random.Random(0xD15)
    for _ in range(20):
        iset = classes(*((rng.randint(1, 500), rng.randint(1, 20)) for _ in range(4)))
        dist = optimal_distribution(iset, solve_capacity(iset))
        assert sum(dist.masses.values()) == pytest.approx(1.0, abs=1e-10)


def test_distribution_validation():
    with pytest.raises(DistributionError):
        InstructionDistribution(masses={"a": 0.7})
    with pytest.raises(DistributionError):
        InstructionDistribution(masses={"a": 1.5, "b": -0.5})
    flat = InstructionDistribution(masses={"a": 1.0})
    with pytest.raises(DistributionError):
        flat.instruction_probability(1)


# --- empirical entropy ---


def test_entropy_constant_trace_is_zero():
    stats = TraceStatistics.from_symbols(["A"] * 6, 0)
    assert entropy_order_n(stats, 0) == 0.0


def test_entropy_alternating_trace():
    stats = TraceStatistics.from_symbols("A B A B A B A B".split(), 1)
    assert entropy_order_n(stats, 0) == 1.0
    # 8 wrapped bigrams: AB x4, BA x4, so the half-half value is exact
    assert entropy_order_n(stats, 1) == pytest.approx(0.5, abs=1e-15)


def test_entropy_odd_alternating_trace_sees_wrap_gram():
    # length 999 ends on A, so the wrap produces a single AA bigram
    symbols = ["A", "B"] * 499 + ["A"]
    stats = TraceStatistics.from_symbols(symbols, 1)
    expected = -(2 * (499 / 999) * math.log2(499 / 999) + (1 / 999) * math.log2(1 / 999)) / 2
    assert entropy_order_n(stats, 1) == pytest.approx(expected, abs=1e-15)


def test_entropy_uniform_four_symbols():
    stats = TraceStatistics.from_symbols(["a", "b", "c", "d"] * 10, 0)
    assert entropy_order_n(stats, 0) == pytest.approx(2.0, abs=1e-12)


def test_entropy_bounded_by_alphabet():
    rng = random.Random(7)
    alphabet = ["w", "x", "y", "z"]
    for _ in range(10):
        symbols = rng.choices(alphabet, k=200)
        stats = TraceStatistics.from_symbols(symbols, 2)
        for order in range(3):
            h = entropy_order_n(stats, order)
            assert 0.0 <= h <= math.log2(len(alphabet)) + 1e-12


def test_entropy_nonincreasing_in_order():
    rng = random.Random(0x0BDE)
    for _ in range(20):
        alphabet = [f"s{i}" for i in range(rng.randint(2, 5))]
        symbols = rng.choices(alphabet, k=rng.randint(50, 400))
        stats = TraceStatistics.from_symbols(symbols, 3)
        hs = [entropy_order_n(stats, j) for j in range(4)]
        for lo, hi in zip(hs[1:], hs):
            assert lo <= hi + 1e-12


def test_statistics_window_counts_cover_trace():
    stats = TraceStatistics.from_symbols("a b b a c".split(), 2)
    for order in range(3):
        assert sum(stats.kgram_counts[order].values()) == 5
    assert stats.alphabet == ("a", "b", "c")
    # windows wrap past the end of the trace
    assert stats.kgram_counts[1][("c", "a")] == 1
    assert stats.kgram_counts[2][("c", "a", "b")] == 1


def test_entropy_order_errors():
    stats = TraceStatistics.from_symbols(["a", "b"], 1)
    with pytest.raises(TraceError):
        entropy_order_n(stats, 2)
    with pytest.raises(TraceError):
        entropy_order_n(stats, -1)
    with pytest.raises(TraceError):
        TraceStatistics.from_symbols(["a"], 1)


@pytest.mark.parametrize(
    "max_order, order0, message",
    [
        (1, 2, "missing counts for order 1"),
        (0, 1, "order-0 counts do not cover the trace"),
    ],
    ids=["order-missing", "counts-short"],
)
def test_statistics_built_directly_are_checked(max_order, order0, message):
    # a trace of length 2 whose order-0 table counts ("a",) order0 times
    with pytest.raises(TraceError, match=f"^{message}$"):
        TraceStatistics(("a",), 2, max_order, {0: Counter({("a",): order0})})


# --- efficiency ---


def test_efficiency_unit_times():
    assert efficiency_from_distribution(classes((2, 1)), {"c0": 1.0}, 1.0) == 1.0


def test_efficiency_two_speed_uniform():
    # all three instructions equally likely: h0 = log2(3), mean time 4/3
    iset = two_speed()
    h0 = math.log2(3)
    value = efficiency_from_distribution(iset, {"fast": 2 / 3, "slow": 1 / 3}, h0)
    assert value == pytest.approx(h0 / (4 / 3), abs=1e-15)
    assert value == pytest.approx(1.1887218755408671, abs=1e-12)


def test_efficiency_of_optimal_distribution_equals_capacity():
    iset = two_speed()
    cap = solve_capacity(iset)
    dist = optimal_distribution(iset, cap)
    h0 = plug_in_entropy_per_member(iset, dist)
    assert efficiency_from_distribution(iset, dist, h0) == pytest.approx(
        cap.capacity_bits, abs=1e-12
    )


def test_efficiency_identity_with_family_member():
    # per-instruction probabilities decay with term time inside the family
    iset = BoundInstructionSet(
        "f",
        (
            BoundClass("a", 3, Fraction(1)),
            BoundFamily("g", 2, Fraction(1), Fraction(1), 4),
        ),
    )
    cap = solve_capacity(iset)
    dist = optimal_distribution(iset, cap)
    y = cap.capacity_bits
    h0 = 0.0
    for time in (1,):  # class a
        p = 2.0 ** (-time * y)
        h0 -= 3 * p * math.log2(p)
    for index in range(4):  # family g terms
        p = 2.0 ** (-(1 + index) * y)
        h0 -= 2 * p * math.log2(p)
    assert efficiency_from_distribution(iset, dist, h0) == pytest.approx(
        cap.capacity_bits, abs=1e-9
    )


def test_no_distribution_beats_capacity():
    rng = random.Random(0x90)
    iset = classes((3, 1), (2, 2), (1, 5))
    cap = solve_capacity(iset).capacity_bits
    for _ in range(100):
        raw = [rng.random() + 1e-9 for _ in range(3)]
        total = sum(raw)
        masses = {f"c{i}": r / total for i, r in enumerate(raw)}
        h0 = plug_in_entropy_per_member(iset, InstructionDistribution(masses))
        assert efficiency_from_distribution(iset, masses, h0) <= cap + 1e-9


def test_efficiency_errors():
    iset = two_speed()
    with pytest.raises(DistributionError, match="unknown member"):
        efficiency_from_distribution(iset, {"nope": 1.0}, 0.5)
    with pytest.raises(ValueError):
        efficiency_from_distribution(iset, {"fast": 1.0}, -0.5)
    fam = BoundInstructionSet("f", (BoundFamily("g", 1, Fraction(1), Fraction(1), 3),))
    with pytest.raises(DistributionError, match="no single time"):
        efficiency_from_distribution(fam, {"g": 1.0}, 0.3)
    # the same mass is fine once the symbol carries its time
    assert efficiency_from_distribution(fam, {"g@2": 1.0}, 0.3) == pytest.approx(0.15)


@pytest.mark.parametrize("entropy", [math.nan, math.inf, -0.5])
def test_efficiency_refuses_an_entropy_outside_zero_to_infinity(entropy):
    with pytest.raises(ValueError, match="entropy must be finite and >= 0"):
        efficiency_from_distribution(two_speed(), {"fast": 0.5, "slow": 0.5}, entropy)


def test_efficiency_of_zero_entropy_is_zero():
    assert efficiency_from_distribution(two_speed(), {"fast": 0.5, "slow": 0.5}, 0.0) == 0.0


# --- traces ---


def test_parse_trace_tokens_and_canonical_times():
    assert parse_trace("fast slow\nfast") == ("fast", "slow", "fast")
    assert parse_trace("g@1.5 g@3/2 g@6/4") == ("g@3/2", "g@3/2", "g@3/2")


@pytest.mark.parametrize("text", ["9bad", "a@", "a@x", "a@-1", "a@0", "@3"])
def test_parse_trace_rejects_bad_tokens(text):
    with pytest.raises(TraceError):
        parse_trace(text)


def test_trace_symbols_resolve_against_set():
    iset = BoundInstructionSet(
        "f",
        (
            BoundClass("c", 1, Fraction(2)),
            BoundFamily("g", 1, Fraction(1), Fraction(2), 3),
        ),
    )
    report = efficiency_from_trace(iset, ["c", "g@1", "g@5", "c@2"], 0)
    assert report.mean_time == pytest.approx((2 + 1 + 5 + 2) / 4)
    with pytest.raises(TraceError, match="unknown instruction"):
        efficiency_from_trace(iset, ["zzz"], 0)
    with pytest.raises(TraceError, match="annotate"):
        efficiency_from_trace(iset, ["g"], 0)
    with pytest.raises(TraceError, match="not one of the family's terms"):
        efficiency_from_trace(iset, ["g@2"], 0)
    with pytest.raises(TraceError, match="not one of the family's terms"):
        efficiency_from_trace(iset, ["g@7"], 0)
    with pytest.raises(TraceError, match="executes in time"):
        efficiency_from_trace(iset, ["c@3"], 0)


def test_trace_report_alternating():
    iset = classes((1, 1), (1, 1))
    symbols = ["c0", "c1"] * 500
    report = efficiency_from_trace(iset, symbols, 1)
    assert report.mean_time == 1.0
    assert report.capacity_bits == pytest.approx(1.0, abs=1e-12)
    c0, c1 = report.orders
    assert c0.efficiency_bits == pytest.approx(1.0, abs=1e-12)
    assert c1.efficiency_bits == pytest.approx(0.5, abs=1e-5)
    assert c0.utilization == pytest.approx(1.0, abs=1e-12)


def test_trace_report_constant_trace_of_singleton_is_idle():
    iset = classes((1, 1), (1, 2))
    report = efficiency_from_trace(iset, ["c0"] * 40, 2)
    assert all(o.efficiency_bits == 0.0 for o in report.orders)
    assert all(o.utilization == 0.0 for o in report.orders)


def test_trace_report_counts_within_member_choice():
    # repeating one count-2 class still leaves an unrecorded binary choice
    # per step, which is exactly this set's capacity
    iset = classes((2, 1))
    report = efficiency_from_trace(iset, ["c0"] * 40, 1)
    assert report.capacity_bits == pytest.approx(1.0, abs=1e-12)
    assert all(o.efficiency_bits == pytest.approx(1.0, abs=1e-12) for o in report.orders)
    assert all(o.utilization == pytest.approx(1.0, abs=1e-12) for o in report.orders)


def test_trace_report_orders_nonincreasing():
    rng = random.Random(0xABBA)
    iset = two_speed()
    symbols = rng.choices(["fast", "slow"], weights=[2, 1], k=600)
    report = efficiency_from_trace(iset, symbols, 3)
    effs = [o.efficiency_bits for o in report.orders]
    assert effs == sorted(effs, reverse=True)


def test_trace_sampled_from_optimal_distribution_concentrates():
    iset = two_speed()
    cap = solve_capacity(iset)
    dist = optimal_distribution(iset, cap)
    rng = random.Random(0x7E57)
    weights = [dist.mass("fast"), dist.mass("slow")]
    symbols = rng.choices(["fast", "slow"], weights=weights, k=100_000)
    report = efficiency_from_trace(iset, symbols, 0, capacity=cap)
    assert abs(report.orders[0].efficiency_bits - LOG2_SILVER) < 0.02


def test_trace_errors():
    iset = two_speed()
    with pytest.raises(TraceError, match="empty"):
        efficiency_from_trace(iset, [], 0)
    with pytest.raises(TraceError, match="too short"):
        efficiency_from_trace(iset, ["fast", "slow"], 5)


# --- one-pass parsing and counting ---


def class_and_family() -> BoundInstructionSet:
    # family g has terms 1/2, 3/2 and 5/2
    return BoundInstructionSet(
        "f",
        (
            BoundClass("c", 2, Fraction(1)),
            BoundFamily("g", 3, Fraction(1, 2), Fraction(1), 3),
        ),
    )


def test_each_distinct_token_is_parsed_once(monkeypatch):
    calls = Counter()
    canonical_token = efficiency_module._canonical_token

    def spy(token):
        calls[token] += 1
        return canonical_token(token)

    monkeypatch.setattr(efficiency_module, "_canonical_token", spy)
    text = "g@1.5 c g@3/2 c g@1.5\ng@6/4 c c g@3/2"
    symbols = parse_trace(text)
    assert calls == Counter(set(text.split()))
    calls.clear()
    efficiency_from_trace(class_and_family(), symbols, 1)
    assert calls == Counter(["c", "g@3/2"])


def test_each_annotation_is_read_once(monkeypatch):
    calls = Counter()
    decimal_fraction = efficiency_module.decimal_fraction

    def spy(text):
        calls[text] += 1
        return decimal_fraction(text)

    monkeypatch.setattr(efficiency_module, "decimal_fraction", spy)
    efficiency_from_trace(class_and_family(), "g@1.5 c c@1 g@3/2 c g@1.5 c@1.0 g@6/4".split(), 1)
    assert calls == Counter(["1.5", "1", "3/2", "1.0", "6/4"])
    calls.clear()
    efficiency_from_distribution(class_and_family(), {"c@1": 0.5, "g@1.5": 0.5}, 1.0)
    assert calls == Counter(["1", "1.5"])


@pytest.mark.parametrize(
    "text, first_bad",
    [("c g@x 9bad g@x", "g@x"), ("c 9bad g@x 9bad", "9bad"), ("c g@0 g@1/0", "g@0")],
)
def test_first_bad_token_in_trace_order_is_named(text, first_bad):
    pattern = re.escape(repr(first_bad))
    with pytest.raises(TraceError, match=pattern):
        parse_trace(text)
    with pytest.raises(TraceError, match=pattern):
        efficiency_from_trace(class_and_family(), text.split(), 0)


# one fault of each kind, mixed: the first bad token in trace order is named,
# whatever is wrong with it; then an empty trace, then the order and length
FIRST_FAULT_CASES = [
    ("zz c@3", 0, "unknown instruction symbol 'zz'"),
    ("c@3 zz", 0, "'c@3': class 'c' executes in time 1, not 3"),
    ("zz", 5, "unknown instruction symbol 'zz'"),
    ("c g@1/2", 5, "trace of length 2 is too short for order 5"),
    ("g zz", 0, "symbol 'g' is a family; annotate its time as g@time"),
    ("zz g", 0, "unknown instruction symbol 'zz'"),
    ("c zz 9bad", 0, "unknown instruction symbol 'zz'"),
    ("c@1.0 g@2 zz", 0, "'g@2': time 2 is not one of the family's terms"),
    ("zz", -1, "unknown instruction symbol 'zz'"),
    ("c", -1, "order must be >= 0, got -1"),
    ("", 9, "trace is empty"),
]


@pytest.mark.parametrize("text, order, message", FIRST_FAULT_CASES)
def test_first_fault_of_any_kind_is_named(text, order, message):
    with pytest.raises(TraceError) as info:
        efficiency_from_trace(class_and_family(), text.split(), order)
    assert str(info.value) == message


@pytest.mark.parametrize("length, order", [(20_000, 100), (20_409, 34)])
def test_kgram_work_past_the_bound_is_refused_at_once(length, order):
    # length * (order + 1)**2 just past 25,000,000 at order 34; order 100
    # would take seconds and about 1 GB to count
    symbols = random.Random(0xB0B).choices(["c", "g@1/2"], k=length)
    message = re.escape(
        f"trace of length {length} at order {order} is past the k-gram bound: "
        "length * (order + 1)^2 must be at most 25,000,000"
    )
    start = time.perf_counter()
    with pytest.raises(TraceError, match=message):
        TraceStatistics.from_symbols(symbols, order)
    with pytest.raises(TraceError, match=message):
        efficiency_from_trace(class_and_family(), symbols, order)
    assert time.perf_counter() - start < 1.0


def test_trace_report_is_the_same_for_any_spelling_and_iterable():
    iset = class_and_family()
    mixed = "c g@1.5 g@3/2 c g@6/4 g@0.5 c g@5/2 g@2.5".split()
    canonical = list(parse_trace(" ".join(mixed)))
    assert canonical.count("g@3/2") == 3
    expected = efficiency_from_trace(iset, canonical, 2)
    assert efficiency_from_trace(iset, mixed, 2) == expected
    assert efficiency_from_trace(iset, (s for s in mixed), 2) == expected
    assert efficiency_from_trace(iset, (s for s in canonical), 2) == expected


def test_class_annotated_with_its_own_time_is_the_bare_symbol():
    iset = class_and_family()  # class c executes in time 1
    for spelling in (["c", "c@1"], ["c@1", "c@1.0"], ["c@2/2", "c"]):
        report = efficiency_from_trace(iset, spelling, 1)
        assert [e.entropy_bits for e in report.orders] == [1.0, 1.0]  # log2(count) only
        assert report == efficiency_from_trace(iset, ["c", "c"], 1)
    mixed = "c g@1/2 c@1 g@3/2 c".split()
    assert efficiency_from_trace(iset, mixed, 2) == efficiency_from_trace(
        iset, "c g@1/2 c g@3/2 c".split(), 2
    )
    with pytest.raises(TraceError, match="executes in time 1, not 2"):
        efficiency_from_trace(iset, ["c", "c@2"], 0)


def test_first_of_equal_member_names_wins():
    iset = BoundInstructionSet(
        "dup", (BoundClass("c", 1, Fraction(2)), BoundClass("c", 5, Fraction(3)))
    )
    report = efficiency_from_trace(iset, ["c", "c@2"], 0)
    assert report.mean_time == 2.0
    assert efficiency_from_distribution(iset, {"c": 1.0}, 1.0) == 0.5


def test_optimal_distribution_of_a_memory_configuration_reaches_capacity():
    # instantiate names its access classes "kind/index", not identifiers
    problem = parse_problem(
        data_path("memory-example.json").read_text(encoding="utf-8")
    )
    iset = instantiate(problem, {"kind1": 1, "kind2": 3})
    assert "kind1/0" in {m.name for m in iset.members}
    cap = solve_capacity(iset)
    dist = optimal_distribution(iset, cap)
    times = {m.name: float(m.time) for m in iset.members}
    # -log2 of one instruction's probability is tau * y*
    h0 = sum(mass * times[name] * cap.capacity_bits for name, mass in dist.masses.items())
    assert efficiency_from_distribution(iset, dist, h0) == pytest.approx(
        cap.capacity_bits, rel=1e-9
    )


@pytest.mark.parametrize(
    "token, message",
    [
        ("g@x", "invalid time annotation in 'g@x'"),
        ("g@1/0", "invalid time annotation in 'g@1/0'"),
        ("g@-3/2", "time annotation must be positive in 'g@-3/2'"),
    ],
)
def test_efficiency_rejects_malformed_annotation(token, message):
    with pytest.raises(TraceError, match=re.escape(message)):
        efficiency_from_distribution(class_and_family(), {token: 1.0}, 1.0)


@pytest.mark.parametrize(
    "token, message",
    [
        ("c@2.0", "'c@2.0': class 'c' executes in time 1, not 2"),
        ("g@0.75", "'g@0.75': time 3/4 is not one of the family's terms"),
    ],
)
def test_efficiency_errors_quote_the_callers_key(token, message):
    with pytest.raises(TraceError, match=re.escape(message)):
        efficiency_from_distribution(class_and_family(), {token: 1.0}, 1.0)


def test_efficiency_unknown_name_stays_a_distribution_error():
    with pytest.raises(DistributionError, match="unknown member '9z'"):
        efficiency_from_distribution(class_and_family(), {"9z": 1.0}, 1.0)


@pytest.mark.parametrize("annotation", ["1e5000", "1e10000000", "1e4300", "1e-4300"])
def test_huge_time_annotation_is_a_trace_error_naming_the_token(annotation):
    # the exponent bound refuses the first two before they are built; the
    # last two pass it but have more digits than str() converts
    token = f"c@{annotation}"
    message = re.escape(f"invalid time annotation in {token!r}")
    start = time.perf_counter()
    with pytest.raises(TraceError, match=message):
        parse_trace(f"{token} c g@1/2")
    with pytest.raises(TraceError, match=message):
        efficiency_from_trace(class_and_family(), [token, "c", "g@1/2"], 0)
    with pytest.raises(TraceError, match=message):
        efficiency_from_distribution(class_and_family(), {token: 1.0}, 1.0)
    assert time.perf_counter() - start < 1.0
