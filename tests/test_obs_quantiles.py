"""The one nearest-rank rule over exact ``value -> count`` tables
(repro.obs.quantiles)."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs
import repro.service
from repro.core.errors import ReproError
from repro.obs.quantiles import pooled_percentile, value_at_rank

VALUES = st.one_of(
    st.lists(st.integers(min_value=0, max_value=2_000), min_size=1, max_size=300),
    st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=300
    ),
)


class TestRule:
    @settings(max_examples=80, deadline=None)
    @given(values=VALUES, q=st.integers(min_value=0, max_value=100))
    def test_percentile_is_sorted_nearest_rank(self, values, q):
        ordered = sorted(values)
        want = ordered[max(1, math.ceil(q * len(values) / 100)) - 1]
        got = pooled_percentile(Counter(values), q)
        assert got == want
        assert type(got) is type(want)  # the counted object, not a cast

    @settings(max_examples=80, deadline=None)
    @given(values=VALUES, data=st.data())
    def test_value_at_rank_is_sorted_index(self, values, data):
        rank = data.draw(st.integers(min_value=1, max_value=len(values)), label="rank")
        got = value_at_rank(Counter(values), rank)
        assert got == sorted(values)[rank - 1]
        assert type(got) is type(values[0])

    def test_fractional_percentile_rounds_up(self):
        # Nearest rank ceil(33.4 * 3 / 100) = 2 (truncating q * n to an
        # int before the ceiling gave rank 1).
        assert pooled_percentile({1: 1, 2: 1, 3: 1}, 33.4) == 2
        # On q's decimal value, 99.9% of 1,000 is rank 999 despite float
        # noise (99.9 * 1000 is 99900.00000000001).
        ranks = {value: 1 for value in range(1, 1001)}
        assert pooled_percentile(ranks, 99.9) == 999
        assert pooled_percentile(ranks, 0.1) == 1
        assert pooled_percentile(ranks, 0.15) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10_000),
        q=st.integers(min_value=0, max_value=100),
    )
    def test_integer_percentile_ranks_are_unchanged(self, n, q):
        # Every report field asks for an integer q: its rank is the one the
        # truncating formula gave.
        ranks = {value: 1 for value in range(1, n + 1)}
        assert pooled_percentile(ranks, q) == max(1, -(-int(q * n) // 100))
        assert pooled_percentile(ranks, float(q)) == max(1, -(-int(q * n) // 100))

    def test_weighted_counts(self):
        counts = {0: 3, 2: 5, 7: 1, 40: 2}
        assert [value_at_rank(counts, r) for r in range(1, 12)] == (
            [0] * 3 + [2] * 5 + [7] + [40] * 2
        )
        got = [pooled_percentile(counts, q) for q in (1, 50, 95, 99, 100)]
        assert got == [0, 2, 40, 40, 40]
        assert all(isinstance(value, int) for value in got)

    def test_quantile_range(self):
        with pytest.raises(ReproError):
            pooled_percentile({1: 1}, 101)
        with pytest.raises(ReproError):
            value_at_rank({1: 1}, 2)
        with pytest.raises(ReproError):
            value_at_rank({1: 1}, 0)

    def test_one_rule_everywhere(self):
        assert repro.service.pooled_percentile is pooled_percentile
        assert repro.obs.pooled_percentile is pooled_percentile
        assert repro.obs.value_at_rank is value_at_rank
