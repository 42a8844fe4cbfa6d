"""Cross-validation of the vectorized delay analytics against the scalar path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConstructionError
from repro.trees.analysis import all_playback_delays, worst_case_delay
from repro.trees.forest import MultiTreeForest
from repro.trees.schedule import first_arrival_slots
from repro.trees.vectorized import (
    figure4_series_fast,
    first_arrival_slots_np,
    playback_delays_np,
    worst_case_delay_fast,
)


class TestFirstArrivals:
    @given(st.integers(1, 1000), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_recurrence(self, size, degree, latency):
        from repro.trees.tree import StreamTree

        # Build a shape-only tree (identity layout) to reuse the scalar code.
        interior = max(0, -(-size // degree) - 1)
        padded = degree * (interior + 1)
        tree = StreamTree(0, degree, list(range(1, padded + 1)), interior)
        scalar = first_arrival_slots(tree, latency=latency)
        vectorized = first_arrival_slots_np(padded, degree, latency=latency)
        for position in range(1, padded + 1):
            assert scalar[position] == vectorized[position - 1]

    def test_validation(self):
        with pytest.raises(ConstructionError):
            first_arrival_slots_np(0, 2)
        with pytest.raises(ConstructionError):
            first_arrival_slots_np(5, 0)


class TestPlaybackDelays:
    @pytest.mark.parametrize("construction", ["structured", "greedy"])
    @pytest.mark.parametrize("n,d", [(15, 3), (100, 2), (37, 4), (9, 3)])
    def test_matches_scalar(self, construction, n, d):
        forest = MultiTreeForest.construct(n, d, construction)
        scalar = all_playback_delays(forest)
        vector = playback_delays_np(forest)
        assert vector.shape == (n,)
        for node in range(1, n + 1):
            assert scalar[node] == vector[node - 1]


class TestWorstCaseFast:
    @given(st.integers(2, 500), st.integers(2, 5))
    @settings(max_examples=80, deadline=None)
    def test_matches_full_construction(self, n, d):
        fast = worst_case_delay_fast(n, d)
        assert fast == worst_case_delay(MultiTreeForest.construct(n, d))

    def test_figure4_series_fast(self):
        populations = [10, 100, 500]
        series = figure4_series_fast(populations, [2, 3])
        assert set(series) == {"degree 2", "degree 3"}
        for name, values in series.items():
            d = int(name.split()[-1])
            for n, value in zip(populations, values, strict=True):
                assert value == worst_case_delay(MultiTreeForest.construct(n, d))

    def test_dtype_and_bounds(self):
        arr = first_arrival_slots_np(1000, 3)
        assert arr.dtype == np.int64
        assert arr.min() == 0
        assert (arr >= 0).all()
