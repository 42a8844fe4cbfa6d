"""Tests for the repair-aware metrics (repro.core.metrics additions)."""

from __future__ import annotations

import pytest

from repro.core.metrics import (
    LossyPlaybackSummary,
    collect_repair_metrics,
    summarize_lossy_playback,
)
from repro.core.playback import summarize_playback


class TestSummarizeLossyPlayback:
    def test_matches_lossless_summary_on_complete_trace(self):
        arrivals = {0: 3, 1: 4, 2: 5, 3: 6}
        clean = summarize_playback(arrivals)
        lossy = summarize_lossy_playback(arrivals, 4)
        assert lossy.startup_delay == clean.startup_delay
        assert lossy.buffer_peak == clean.buffer_peak
        assert lossy.available == 4
        assert lossy.missing == ()

    def test_missing_packets_are_skipped_not_waited_for(self):
        # Packet 1 never arrives; playback keeps real-time pace over the hole.
        arrivals = {0: 1, 2: 3, 3: 4}
        summary = summarize_lossy_playback(arrivals, 4)
        assert summary.missing == (1,)
        assert summary.available == 3
        # Start is set by the latest (slot - packet): all have slot-packet=1.
        assert summary.startup_delay == 2

    def test_late_straggler_dominates_start(self):
        arrivals = {0: 1, 1: 2, 2: 30, 3: 4}
        summary = summarize_lossy_playback(arrivals, 4)
        assert summary.startup_delay == 29  # 30 - 2 + 1
        # Early packets pile up while waiting for the straggler.
        assert summary.buffer_peak >= 3

    def test_nothing_available(self):
        summary = summarize_lossy_playback({}, 3)
        assert summary.available == 0
        assert summary.missing == (0, 1, 2)
        assert summary.startup_delay == 0

    def test_startup_clamped_at_zero_for_early_packets(self):
        # Only packet 5 survived, and it arrived at slot 3 — ahead of its
        # index — so the unclamped start 3 - 5 + 1 = -1 would precede the
        # stream.  Playback starts at 0 and holds packet 5 for slots 3..4.
        summary = summarize_lossy_playback({5: 3}, 8)
        assert summary == LossyPlaybackSummary(
            startup_delay=0, buffer_peak=1, available=1,
            missing=(0, 1, 2, 3, 4, 6, 7),
        )

    def test_out_of_prefix_arrivals_ignored(self):
        summary = summarize_lossy_playback({0: 1, 7: 2}, 2)
        assert summary.available == 1
        assert summary.missing == (1,)

    def test_rejects_empty_prefix(self):
        with pytest.raises(ValueError):
            summarize_lossy_playback({0: 1}, 0)


class TestCollectRepairMetrics:
    def test_residual_accounting(self):
        arrivals = {
            1: {0: 1, 1: 2, 2: 3},
            2: {0: 2, 2: 4},  # packet 1 lost for good
        }
        metrics = collect_repair_metrics(arrivals, num_packets=3, num_slots=10)
        assert metrics.residual_pairs == 1
        assert metrics.residual_loss_rate == pytest.approx(1 / 6)
        assert metrics.goodput == pytest.approx(5 / 20)

    def test_latency_attributed_against_baseline(self):
        baseline = {1: {0: 1, 1: 2, 2: 3}}
        arrivals = {1: {0: 1, 1: 9, 2: 3}}  # packet 1 repaired 7 slots late
        metrics = collect_repair_metrics(
            arrivals, num_packets=3, num_slots=12, baseline=baseline
        )
        assert metrics.recovered_pairs == 1
        assert metrics.recovery_latency_max == 7
        assert metrics.recovery_latencies == (7,)
        assert metrics.recovery_latency_mean == pytest.approx(7.0)

    def test_on_time_pairs_are_not_recoveries(self):
        baseline = {1: {0: 1, 1: 2}}
        metrics = collect_repair_metrics(
            {1: {0: 1, 1: 2}}, num_packets=2, num_slots=5, baseline=baseline
        )
        assert metrics.recovered_pairs == 0
        assert metrics.recovery_latency_max == 0
        assert metrics.recovery_latency_mean == 0.0

    def test_effective_delay_aggregates_over_nodes(self):
        arrivals = {
            1: {0: 1, 1: 2},
            2: {0: 5, 1: 6},
        }
        metrics = collect_repair_metrics(arrivals, num_packets=2, num_slots=10)
        assert metrics.max_effective_delay == 6
        assert metrics.avg_effective_delay == pytest.approx(4.0)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            collect_repair_metrics({}, num_packets=2, num_slots=5)
        with pytest.raises(ValueError):
            collect_repair_metrics({1: {0: 1}}, num_packets=1, num_slots=0)
