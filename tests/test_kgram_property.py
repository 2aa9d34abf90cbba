"""Property test: the one-pass k-gram count equals counting every order."""

from collections import Counter
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from compucap import TraceStatistics


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
    max_order = data.draw(st.integers(0, 5))
    alphabet = [f"s{i}" for i in range(data.draw(st.integers(1, 6)))]
    symbols = data.draw(
        st.lists(st.sampled_from(alphabet), min_size=max_order + 1, max_size=300)
    )
    stats = TraceStatistics.from_symbols(symbols, max_order)
    expected = per_order_counts(symbols, max_order)
    assert list(stats.kgram_counts) == list(expected)
    for order, counts in expected.items():
        assert type(stats.kgram_counts[order]) is Counter
        assert list(stats.kgram_counts[order].items()) == list(counts.items())
    assert stats.alphabet == tuple(sorted(set(symbols)))

