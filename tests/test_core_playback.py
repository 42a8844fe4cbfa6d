"""Unit tests for repro.core.playback (delay/buffer from arrival traces)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.playback import (
    buffer_occupancy_series,
    buffer_peak,
    earliest_safe_start,
    hiccup_count,
    hiccup_packets,
    summarize_playback,
)


class TestEarliestSafeStart:
    def test_in_order_arrivals(self):
        # Packet j arrives in slot j: consuming at D = 1 tracks arrivals exactly.
        arrivals = {j: j for j in range(10)}
        assert earliest_safe_start(arrivals) == 1

    def test_paper_node1_example(self):
        # Paper §2.3: node 1 receives packets 0, 1, 2 in slots 0, 2, 1.
        arrivals = {0: 0, 1: 2, 2: 1}
        assert earliest_safe_start(arrivals) == 2

    def test_late_first_packet_dominates(self):
        arrivals = {0: 9, 1: 10, 2: 11}
        assert earliest_safe_start(arrivals) == 10

    def test_single_packet(self):
        assert earliest_safe_start({0: 5}) == 6

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            earliest_safe_start({})

    def test_non_prefix_trace_rejected(self):
        with pytest.raises(ValueError, match="prefix"):
            earliest_safe_start({1: 0, 2: 1})

    def test_gap_in_trace_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            earliest_safe_start({0: 0, 2: 1})

    @pytest.mark.parametrize(
        "call",
        [
            lambda trace: earliest_safe_start(trace),
            lambda trace: buffer_peak(trace, 0),
            lambda trace: buffer_occupancy_series(trace, 0),
        ],
        ids=["earliest_safe_start", "buffer_peak", "buffer_occupancy_series"],
    )
    def test_negative_arrival_rejected(self, call):
        # delta[-1] would wrap to the end of the occupancy list.
        with pytest.raises(ValueError, match=r"packet 0 arrives at slot -1"):
            call({0: -1, 1: 0, 2: 0})

    @given(
        st.dictionaries(
            st.integers(0, 30),
            st.integers(0, 200),
            min_size=1,
        ).map(lambda d: {i: s for i, (_, s) in enumerate(sorted(d.items()))})
    )
    def test_start_is_hiccup_free_and_minimal(self, arrivals):
        start = earliest_safe_start(arrivals)
        assert hiccup_count(arrivals, start) == 0
        assert start >= 1
        if start > 1:
            assert hiccup_count(arrivals, start - 1) > 0


class TestHiccups:
    def test_no_hiccups_when_started_late(self):
        arrivals = {0: 3, 1: 4, 2: 5}
        assert hiccup_packets(arrivals, 10) == []

    def test_specific_misses(self):
        arrivals = {0: 0, 1: 5, 2: 2}
        # Start delay 1: packet j consumed at end of slot j.
        # Packet 1's deadline is slot 1 (arrives 5: miss); packet 2's
        # deadline is slot 2 (arrives 2: on time, boundary).
        assert hiccup_packets(arrivals, 1) == [1]
        assert hiccup_count(arrivals, 1) == 1

    def test_boundary_arrival_is_not_hiccup(self):
        # Arriving in the consumption slot itself is on time (consumed at end).
        arrivals = {0: 0, 1: 1}
        assert hiccup_packets(arrivals, 1) == []


class TestBufferOccupancy:
    def test_in_order_stream_holds_one(self):
        # Packet j arrives in slot j and is played the same slot: it still
        # transits the buffer, so occupancy is exactly 1 every slot.
        arrivals = {j: j for j in range(6)}
        series = buffer_occupancy_series(arrivals, 1, horizon=6)
        assert all(v == 1 for v in series)

    def test_prebuffered_burst(self):
        # Three packets arrive in slot 0; consumption drains one per slot.
        arrivals = {0: 0, 1: 0, 2: 0}
        series = buffer_occupancy_series(arrivals, 1, horizon=4)
        assert series == [3, 2, 1, 0]

    def test_paper_node1_buffer_under_paper_start(self):
        # With the paper's start rule a(1) = 3, node 1 buffers all of 0, 1, 2.
        arrivals = {0: 0, 1: 2, 2: 1}
        assert buffer_peak(arrivals, 3) == 3

    def test_peak_with_optimal_start_is_smaller(self):
        arrivals = {0: 0, 1: 2, 2: 1}
        assert buffer_peak(arrivals, earliest_safe_start(arrivals)) == 2

    def test_horizon_truncates(self):
        arrivals = {0: 0, 1: 0}
        assert buffer_occupancy_series(arrivals, 5, horizon=1) == [2]

    def test_hiccup_start_clamps_consumption(self):
        # Start 1 but packet 0 arrives at slot 4: consumed on arrival.
        arrivals = {0: 4}
        series = buffer_occupancy_series(arrivals, 1, horizon=6)
        assert series == [0, 0, 0, 0, 1, 0]

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=25).map(
            lambda slots: dict(enumerate(sorted(slots)))
        ),
        st.integers(1, 60),
    )
    def test_occupancy_never_negative(self, arrivals, start):
        series = buffer_occupancy_series(arrivals, start)
        assert all(v >= 0 for v in series)

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=25).map(
            lambda slots: dict(enumerate(sorted(slots)))
        )
    )
    def test_later_start_never_shrinks_peak(self, arrivals):
        start = earliest_safe_start(arrivals)
        assert buffer_peak(arrivals, start) <= buffer_peak(arrivals, start + 5)


class TestSummary:
    def test_summary_fields(self):
        arrivals = {0: 2, 1: 3, 2: 4}
        summary = summarize_playback(arrivals)
        assert summary.startup_delay == 3
        assert summary.first_arrival_slot == 2
        assert summary.packets_observed == 3
        assert summary.buffer_peak >= 0
