"""The one-pass k-gram count equals counting every order, and a trace's
report equals one computed from those per-order counts."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compucap import (
    BoundClass,
    BoundFamily,
    BoundInstructionSet,
    OrderEstimate,
    TraceEfficiencyReport,
    TraceStatistics,
    efficiency_from_trace,
    parse_trace,
    solve_capacity,
)
from compucap.efficiency import _WORD_SAMPLE, _word_counts


def per_order_counts(symbols, max_order):
    """Every order counted over its own wrapped windows: the reference the
    one-pass count must match, key order included."""
    n = len(symbols)
    extended = [*symbols, *symbols[:max_order]]
    return {
        order: Counter(zip(*(islice(extended, i, i + n) for i in range(order + 1))))
        for order in range(max_order + 1)
    }


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_counts_match_per_order_counts(data):
    # up to 300 symbols and order 9: bytes whose windows fit one machine
    # word and bytes whose windows do not, and lists of more than 256
    # symbols, all occur
    max_order = data.draw(st.integers(0, 9))
    size = data.draw(st.integers(1, 300))
    codes = data.draw(
        st.lists(st.integers(0, size - 1), min_size=max_order + 1, max_size=300)
    )
    if data.draw(st.booleans()):
        # every symbol occurs, so past 256 of them no bytes can hold them
        codes += data.draw(st.permutations(range(size)))
    traces = [[f"s{code}" for code in codes], codes]
    if size <= 256:
        traces.append(bytes(codes))
    for symbols in traces:
        stats = TraceStatistics.from_symbols(symbols, max_order)
        expected = per_order_counts(list(symbols), max_order)
        assert list(stats.kgram_counts) == list(expected)
        for order, counts in expected.items():
            assert type(stats.kgram_counts[order]) is Counter
            assert list(stats.kgram_counts[order].items()) == list(counts.items())
        assert stats.alphabet == tuple(sorted(set(symbols)))


def reference_report(iset, tokens, max_order):
    """efficiency_from_trace's report computed from per_order_counts over
    the canonical symbols: every sum runs in those counts' key order."""
    members = {m.name: m for m in iset.members}
    symbols = []
    for symbol in parse_trace(" ".join(tokens)):
        name = symbol.partition("@")[0]
        symbols.append(name if isinstance(members[name], BoundClass) else symbol)
    counts = per_order_counts(symbols, max_order)
    n = len(symbols)
    mean_time = within_member = 0.0
    for (symbol,), count in counts[0].items():
        name, _, time = symbol.partition("@")
        member = members[name]
        if isinstance(member, BoundClass):
            time, instructions = member.time, member.count
        else:
            time, instructions = Fraction(time), member.count_per_term
        mean_time += count / n * float(time)
        within_member += count / n * math.log2(instructions)
    capacity = solve_capacity(iset).capacity_bits
    orders = []
    for order, grams in counts.items():
        acc = 0.0
        for count in grams.values():
            acc -= count / n * math.log2(count / n)
        h = acc / (order + 1) + within_member
        orders.append(OrderEstimate(order, h, h / mean_time, h / mean_time / capacity))
    return TraceEfficiencyReport(n, mean_time, capacity, tuple(orders))


@pytest.mark.parametrize("max_order", [0, 3, 4])
def test_trace_report_matches_the_per_order_reference(max_order):
    # a family of 400 terms, over 300 of them in the trace: the symbols'
    # numbers do not fit one byte, so every order counts tuples
    iset = BoundInstructionSet(
        "wide",
        (BoundClass("c", 3, Fraction(2)), BoundFamily("f", 5, Fraction(1), Fraction(1, 2), 400)),
    )
    rng = random.Random(37)
    terms = [Fraction(1) + index * Fraction(1, 2) for index in range(400)]
    tokens = []
    for _ in range(3000):
        if rng.random() < 0.1:
            tokens.append(rng.choice(["c", "c@2", "c@4/2"]))
        else:
            time = rng.choice(terms[:320])
            tokens.append(f"f@{rng.choice([str(time), f'{float(time)}'])}")
    report = efficiency_from_trace(iset, tokens, max_order)
    assert len(set(parse_trace(" ".join(tokens)))) > 256
    assert report == reference_report(iset, tokens, max_order)


@pytest.mark.parametrize("max_order", [1, 3, 7])
@pytest.mark.parametrize("distinct", [False, True])
def test_packed_words_fall_back_to_tuples_where_windows_are_distinct(max_order, distinct):
    # a trace of more windows than the sample: uniform over 256 symbols its
    # first windows are nearly all distinct and the count falls back to
    # tuples; over 4 symbols at orders below 7 they repeat and pack
    rng = random.Random(max_order)
    size = 256 if distinct else 4
    symbols = bytes(rng.randrange(size) for _ in range(3 * _WORD_SAMPLE))
    packs = not distinct and max_order < 7
    assert (_word_counts(symbols, max_order + 1) is not None) == packs
    stats = TraceStatistics.from_symbols(symbols, max_order)
    for order, counts in per_order_counts(list(symbols), max_order).items():
        assert type(stats.kgram_counts[order]) is Counter
        assert list(stats.kgram_counts[order].items()) == list(counts.items())
