"""SLO scoring: pooled percentiles, the batch scorer, the streaming fold."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.core.metrics import summarize_lossy_playback
from repro.exec.batch import BatchMetrics, replay_batch
from repro.exec.compiler import COMPILABLE_SCHEMES, compile_schedule
from repro.exec.replay import bernoulli_mask, replay_arrivals
from repro.service.admission import AdmissionDecision
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionSLO,
    pooled_percentile,
    score_batch_sessions,
)


def _decision(session_id, status, *, wait=0):
    return AdmissionDecision(
        session_id=session_id,
        status=status,
        arrival_slot=0,
        start_slot=wait,
        wait_slots=wait,
        degree=3,
        duration=0 if status == "rejected" else 10,
        reason="capacity" if status == "rejected" else "",
    )


def _columns(delays, buffers, *, residual, available, num_packets, num_slots):
    """A one-session kernel result built by hand from per-node columns."""
    return BatchMetrics(
        num_sessions=1,
        num_nodes=len(delays),
        num_packets=num_packets,
        num_slots=num_slots,
        seeds=(0,),
        drop_rates=(0.0,),
        residual=np.array([residual], dtype=np.int64),
        available=np.array([available], dtype=np.int64),
        max_delay=np.array([max(delays)], dtype=np.int64),
        avg_delay=np.array([sum(delays) / len(delays)]),
        max_buffer=np.array([max(buffers)], dtype=np.int64),
        avg_buffer=np.array([sum(buffers) / len(buffers)]),
        node_delays=np.array([delays], dtype=np.int32),
        node_buffers=np.array([buffers], dtype=np.int32),
    )


def _score(batch, *, session_id=0, wait=0, status="admitted"):
    (slo,) = score_batch_sessions(
        batch, session_ids=[session_id], labels=["k"],
        wait_slots=[wait], statuses=[status],
    )
    return slo


class TestPooledPercentile:
    def test_nearest_rank_on_split_population(self):
        counts = {1: 50, 10: 50}
        assert pooled_percentile(counts, 50) == 1
        assert pooled_percentile(counts, 51) == 10
        assert pooled_percentile(counts, 100) == 10

    def test_degenerate_distribution(self):
        assert pooled_percentile({5: 1}, 0) == 5
        assert pooled_percentile({5: 1}, 100) == 5

    def test_bad_inputs(self):
        with pytest.raises(ReproError):
            pooled_percentile({1: 1}, -1)
        with pytest.raises(ReproError):
            pooled_percentile({1: 1}, 101)
        with pytest.raises(ReproError):
            pooled_percentile({}, 50)


class TestScoreSession:
    """``score_batch_sessions`` over hand-built kernel columns."""

    def test_hand_computed_two_nodes(self):
        # Node 1 receives both packets on time; node 2 loses packet 1.
        traces = ({0: 1, 1: 2}, {0: 3})
        summaries = [summarize_lossy_playback(t, 2) for t in traces]
        assert [s.startup_delay for s in summaries] == [2, 4]
        assert [s.buffer_peak for s in summaries] == [1, 1]
        slo = _score(
            _columns([2, 4], [1, 1], residual=1, available=3,
                     num_packets=2, num_slots=10),
            session_id=7,
        )
        assert slo.session_id == 7
        assert slo.startup_delay == 4          # node 2: slot 3 - packet 0 + 1
        assert slo.rebuffer_ratio == 0.25      # 1 missing of 4 pairs
        assert slo.delay_p50 == 2
        assert slo.delay_p99 == 4
        assert slo.buffer_p99 == 1
        assert slo.goodput == pytest.approx(3 / 20)
        assert slo.delay_counts == ((2, 1), (4, 1))
        assert slo.num_nodes == 2

    def test_wait_charges_startup_only(self):
        slo = _score(
            _columns([2], [1], residual=0, available=2,
                     num_packets=2, num_slots=10),
            wait=5, status="degraded",
        )
        assert slo.startup_delay == 2 + 5
        assert slo.status == "degraded"
        assert slo.wait_slots == 5
        # The per-node delay distribution is wait-free.
        assert slo.delay_counts == ((2, 1),)

    def test_empty_trace_node_counts_as_full_loss(self):
        # Node 2 received nothing: delay and buffer 0, both pairs missing.
        assert summarize_lossy_playback({}, 2).startup_delay == 0
        slo = _score(
            _columns([1, 0], [1, 0], residual=2, available=2,
                     num_packets=2, num_slots=4),
        )
        assert slo.rebuffer_ratio == 0.5  # node 2 missed both packets
        assert 0 in dict(slo.delay_counts)
        assert slo.buffer_counts == ((0, 1), (1, 1))

    def test_bad_inputs(self):
        batch = _columns([1], [1], residual=0, available=1,
                         num_packets=1, num_slots=2)
        without_columns = replace(batch, node_delays=None, node_buffers=None)
        with pytest.raises(ReproError, match="keep_node_columns"):
            score_batch_sessions(without_columns, session_ids=[0], labels=["k"])
        with pytest.raises(ReproError, match="1 sessions"):
            score_batch_sessions(batch, session_ids=[0, 1], labels=["k", "k"])
        with pytest.raises(ReproError, match="align"):
            score_batch_sessions(
                batch, session_ids=[0], labels=["k"], wait_slots=[0, 0]
            )
        with pytest.raises(ReproError, match="align"):
            score_batch_sessions(
                batch, session_ids=[0], labels=["k"], statuses=[]
            )

    def test_row_is_flat(self):
        slo = _score(
            _columns([1], [1], residual=0, available=1,
                     num_packets=1, num_slots=2),
            session_id=3,
        )
        row = slo.row()
        assert row["session"] == 3
        assert "delay_counts" not in row


def _reference_slo(schedule, seed, rate, *, num_packets, horizon, wait,
                   session_id):
    """One session's SLO from the reference interpreter, node by node."""
    mask = bernoulli_mask(schedule, rate, seed)
    arrivals = replay_arrivals(schedule, num_slots=horizon, drop_mask=mask)
    delays: Counter[int] = Counter()
    buffers: Counter[int] = Counter()
    missing = available = 0
    for trace in arrivals.values():
        summary = summarize_lossy_playback(trace, num_packets)
        delays[summary.startup_delay] += 1
        buffers[summary.buffer_peak] += 1
        missing += len(summary.missing)
        available += summary.available
    num_nodes = len(arrivals)
    return SessionSLO(
        session_id=session_id,
        label="k",
        status="admitted",
        wait_slots=wait,
        startup_delay=max(delays) + wait,
        rebuffer_ratio=missing / (num_nodes * num_packets),
        delay_p50=pooled_percentile(delays, 50),
        delay_p95=pooled_percentile(delays, 95),
        delay_p99=pooled_percentile(delays, 99),
        buffer_p50=pooled_percentile(buffers, 50),
        buffer_p99=pooled_percentile(buffers, 99),
        goodput=available / (num_nodes * horizon),
        num_nodes=num_nodes,
        num_packets=num_packets,
        delay_counts=tuple(sorted(delays.items())),
        buffer_counts=tuple(sorted(buffers.items())),
    )


class TestScoreBatchMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(COMPILABLE_SCHEMES),
        st.integers(min_value=3, max_value=34),   # N
        st.integers(min_value=2, max_value=4),    # d
        st.sampled_from([0.0, 0.05, 0.2, 0.5]),   # drop rate
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**31 - 1),  # seed
                st.integers(min_value=0, max_value=40),         # wait
            ),
            min_size=1, max_size=5,
        ),
        st.data(),
    )
    def test_batch_scores_equal_reference_interpreter(
        self, scheme, n, d, rate, sessions, data
    ):
        schedule = compile_schedule(scheme, n, d, num_packets=6)
        horizon = data.draw(
            st.integers(min_value=1, max_value=schedule.num_slots), label="horizon"
        )
        num_packets = data.draw(
            st.integers(min_value=1, max_value=8), label="prefix"
        )
        seeds = [seed for seed, _ in sessions]
        waits = [wait for _, wait in sessions]
        batch = replay_batch(
            schedule, seeds, rate, num_packets=num_packets, num_slots=horizon,
            keep_node_columns=True,
        )
        scored = score_batch_sessions(
            batch,
            session_ids=list(range(len(sessions))),
            labels=["k"] * len(sessions),
            wait_slots=waits,
        )
        expected = [
            _reference_slo(
                schedule, seed, rate, num_packets=num_packets,
                horizon=horizon, wait=wait, session_id=i,
            )
            for i, (seed, wait) in enumerate(sessions)
        ]
        assert scored == expected


def _fold(decisions, slo_batches, **cache):
    aggregator = FleetAggregator()
    for decision in decisions:
        aggregator.add_decision(decision)
    for slos in slo_batches:
        aggregator.add_sessions(slos)
    return aggregator.report(**cache)


class TestAggregateFleet:
    """``FleetAggregator.add_sessions`` in exact mode."""

    def _slo(self, session_id, *, delay=2, wait=0):
        return _score(
            _columns([delay], [1], residual=0, available=1,
                     num_packets=1, num_slots=10),
            session_id=session_id, wait=wait,
        )

    def test_admission_tallies(self):
        decisions = [
            _decision(0, "admitted"),
            _decision(1, "admitted", wait=4),
            _decision(2, "degraded"),
            _decision(3, "rejected"),
        ]
        slos = [self._slo(0), self._slo(1, wait=4), self._slo(2)]
        report = _fold(decisions, [slos], cache_hits=2, cache_misses=1)
        assert report.num_sessions == 4
        assert report.admitted == 2
        assert report.degraded == 1
        assert report.queued == 1
        assert report.rejected == 1
        assert report.reject_rate == 0.25
        assert report.cache_hit_rate == pytest.approx(2 / 3)

    def test_percentiles_pool_across_sessions(self):
        # 50 nodes at delay 2 in one session, 1 node at delay 9 in another:
        # the pooled p99 must see the tail node, a mean-of-percentiles won't.
        fast = _score(
            _columns([2] * 50, [1] * 50, residual=0, available=50,
                     num_packets=1, num_slots=10),
        )
        slow = self._slo(1, delay=9)
        decisions = [_decision(0, "admitted"), _decision(1, "admitted")]
        report = _fold(decisions, [[fast, slow]])
        assert report.delay_p50 == 2
        assert report.delay_p99 == 9
        assert report.startup_max == 9

    def test_split_batches_fold_identically(self):
        # The runner folds one executor unit at a time; how sessions are
        # split into add_sessions calls must not change the report.
        decisions = [_decision(i, "admitted") for i in range(6)]
        slos = [self._slo(i, delay=2 + i % 3, wait=i % 2) for i in range(6)]
        whole = _fold(decisions, [slos])
        assert (whole.startup_p50, whole.startup_max) == (3, 5)
        assert _fold(decisions, [slos[:2], slos[2:]]) == whole
        assert _fold(decisions, [[slo] for slo in slos]) == whole

    def test_empty_fleet_raises(self):
        with pytest.raises(ReproError):
            _fold([], [])

    def test_all_rejected_raises(self):
        with pytest.raises(ReproError):
            _fold([_decision(0, "rejected")], [])

    def test_dict_round_trip_through_json(self):
        decisions = [_decision(0, "admitted"), _decision(1, "rejected")]
        report = _fold(decisions, [[self._slo(0)]], cache_hits=1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert FleetSLOReport.from_dict(payload) == report
