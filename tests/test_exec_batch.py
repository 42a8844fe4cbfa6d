"""Unit tests for the vectorized batch-replay kernel (``repro.exec.batch``).

The slot-for-slot identity against the scalar path and the engine is
property-tested in ``test_exec_properties.py``; here we pin the kernel's
contract surface — validation, chunking, mask determinism, counters, the
``BatchMetrics`` accessors, and the ``replay_point`` batch-of-1 shim.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.core.metrics import collect_repair_metrics, summarize_lossy_playback
from repro.exec import (
    BatchMetrics,
    CompiledSchedule,
    bernoulli_mask,
    bernoulli_masks,
    compile_schedule,
    replay_arrivals,
    replay_batch,
    replay_point,
    spawn_seeds,
)
from repro.obs import MetricsRegistry
from repro.obs.registry import use_registry


@pytest.fixture(scope="module")
def schedule():
    return compile_schedule("multi-tree", 15, 2, num_packets=8)


class TestSpawnSeeds:
    def test_children_depend_only_on_master_and_index(self):
        # Session i's stream is fixed by (master, i) — not by how many
        # siblings were spawned alongside it.
        a = spawn_seeds(7, 4)
        b = spawn_seeds(7, 9)
        for i in range(4):
            ra = np.random.default_rng(a[i]).random(16)
            rb = np.random.default_rng(b[i]).random(16)
            assert np.array_equal(ra, rb)

    def test_distinct_masters_diverge(self):
        a = np.random.default_rng(spawn_seeds(0, 1)[0]).random(16)
        b = np.random.default_rng(spawn_seeds(1, 1)[0]).random(16)
        assert not np.array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ReproError):
            spawn_seeds(0, -1)

    def test_zero_is_empty(self):
        assert spawn_seeds(0, 0) == ()


class TestBernoulliMasks:
    def test_rows_match_scalar_masks(self, schedule):
        seeds = [3, np.random.SeedSequence(11), 42]
        rates = [0.1, 0.4, 0.9]
        masks = bernoulli_masks(schedule, rates, seeds)
        assert masks is not None and masks.shape == (3, schedule.size)
        for b, (seed, rate) in enumerate(zip(seeds, rates)):
            solo = bernoulli_mask(schedule, rate, seed)
            assert np.array_equal(masks[b], np.asarray(solo, dtype=bool))

    def test_all_zero_rates_return_none(self, schedule):
        assert bernoulli_masks(schedule, [0.0, 0.0], [1, 2]) is None

    def test_length_mismatch_rejected(self, schedule):
        with pytest.raises(ReproError, match="2 seeds but 1 drop rates"):
            bernoulli_masks(schedule, [0.1], [1, 2])

    def test_rate_out_of_range_rejected(self, schedule):
        with pytest.raises(ReproError, match=r"drop rate must be in \[0, 1\]"):
            bernoulli_masks(schedule, [1.5], [1])


class TestReplayBatchValidation:
    def test_empty_seed_batch_rejected(self, schedule):
        with pytest.raises(ReproError, match="at least one session seed"):
            replay_batch(schedule, (), 0.0, num_packets=4)

    def test_rate_vector_length_mismatch(self, schedule):
        with pytest.raises(ReproError, match="2 seeds but 3 drop rates"):
            replay_batch(schedule, (1, 2), (0.1, 0.1, 0.1), num_packets=4)

    def test_rate_out_of_range(self, schedule):
        with pytest.raises(ReproError, match=r"drop rate must be in \[0, 1\]"):
            replay_batch(schedule, (1,), -0.2, num_packets=4)

    def test_horizon_outside_compiled_range(self, schedule):
        with pytest.raises(ReproError, match="replay horizon"):
            replay_batch(
                schedule, (1,), 0.0, num_packets=4,
                num_slots=schedule.num_slots + 1,
            )

    def test_nonpositive_packets(self, schedule):
        with pytest.raises(ReproError, match="num_packets must be positive"):
            replay_batch(schedule, (1,), 0.0, num_packets=0)

    def test_session_index_out_of_range(self, schedule):
        batch = replay_batch(schedule, (1, 2), 0.05, num_packets=4)
        with pytest.raises(ReproError, match=r"outside batch \[0, 2\)"):
            batch.metrics(2)


class TestReplayBatch:
    def test_scalar_rate_broadcasts(self, schedule):
        batch = replay_batch(schedule, (1, 2, 3), 0.2, num_packets=6)
        assert batch.drop_rates == (0.2, 0.2, 0.2)
        assert batch.num_sessions == 3

    def test_chunked_run_is_identical(self, schedule):
        seeds = spawn_seeds(0, 12)
        full = replay_batch(schedule, seeds, 0.15, num_packets=6)
        # Budget of 1 element forces one-session kernel chunks.
        tiny = replay_batch(
            schedule, seeds, 0.15, num_packets=6, element_budget=1
        )
        for field in ("residual", "available", "max_delay", "avg_delay",
                      "max_buffer", "avg_buffer", "node_delays",
                      "node_buffers"):
            assert np.array_equal(getattr(full, field), getattr(tiny, field))

    def test_node_columns_optional(self, schedule):
        batch = replay_batch(
            schedule, (1,), 0.0, num_packets=6, keep_node_columns=False
        )
        assert batch.node_delays is None and batch.node_buffers is None

    def test_node_column_shape(self, schedule):
        batch = replay_batch(schedule, (1, 2), 0.1, num_packets=6)
        assert batch.node_delays is not None
        assert batch.node_delays.shape == (2, batch.num_nodes)
        assert batch.node_buffers is not None
        assert batch.node_buffers.shape == (2, batch.num_nodes)
        # Aggregates are exactly the column reductions.
        assert int(batch.max_delay[0]) == int(batch.node_delays[0].max())
        assert float(batch.avg_buffer[1]) == float(batch.node_buffers[1].mean())

    def test_rows_shape(self, schedule):
        batch = replay_batch(schedule, (5, 6), 0.1, num_packets=6)
        rows = batch.rows()
        assert len(rows) == 2
        assert rows[0]["seed"] == 5 and rows[1]["seed"] == 6
        assert rows[0]["drop_rate"] == 0.1
        assert rows[0]["max_delay"] == int(batch.max_delay[0])
        assert rows[1]["residual"] == int(batch.residual[1])

    def test_counters(self, schedule):
        registry = MetricsRegistry()
        with use_registry(registry):
            replay_batch(schedule, (1, 2, 3, 4), 0.1, num_packets=6)
        sessions = registry.counter("sweep.batch_sessions", scheme="multi-tree")
        assert sessions.value == 4
        tx = registry.counter("sweep.batched_tx", scheme="multi-tree")
        assert tx.value == 4 * schedule.size

    def test_loss_free_batch_is_uniform(self, schedule):
        # One replayed row, broadcast to every session's columns.
        batch = replay_batch(schedule, (1, 2, 3), 0.0, num_packets=6)
        assert batch.metrics(0) == batch.metrics(1) == batch.metrics(2)
        assert int(batch.residual[0]) == 0
        assert batch.node_delays is not None and batch.node_buffers is not None
        assert (batch.node_delays == batch.node_delays[0]).all()
        assert (batch.node_buffers == batch.node_buffers[0]).all()

    def test_isinstance_batch_metrics(self, schedule):
        batch = replay_batch(schedule, (1,), 0.0, num_packets=4)
        assert isinstance(batch, BatchMetrics)


def _scalar_session(schedule, seed, rate, *, num_packets, num_slots):
    mask = bernoulli_mask(schedule, rate, seed)
    arrivals = replay_arrivals(schedule, num_slots=num_slots, drop_mask=mask)
    metrics = collect_repair_metrics(
        arrivals, num_packets=num_packets, num_slots=num_slots
    )
    return arrivals, metrics


class TestStartupClamp:
    def test_churned_lossy_node_starts_at_zero_like_scalar(self):
        # A prerecorded multi-tree session cut at slot 2: seed 2 at 20% loss
        # leaves a node holding only packets that arrived ahead of their
        # index, whose unclamped start is negative.
        schedule = compile_schedule("multi-tree", 15, 3, num_packets=8)
        arrivals, scalar = _scalar_session(
            schedule, 2, 0.2, num_packets=4, num_slots=2
        )
        unclamped = [
            max(slot - packet for packet, slot in trace.items() if packet < 4) + 1
            for trace in arrivals.values()
            if any(packet < 4 for packet in trace)
        ]
        assert min(unclamped) < 0
        batch = replay_batch(schedule, (2,), 0.2, num_packets=4, num_slots=2)
        assert batch.metrics(0) == scalar
        assert batch.node_delays is not None and batch.node_buffers is not None
        for row, node in enumerate(schedule.node_ids):
            summary = summarize_lossy_playback(arrivals[node], 4)
            assert batch.node_delays[0, row] == summary.startup_delay >= 0
            assert batch.node_buffers[0, row] == summary.buffer_peak


def _double_delivery_schedule() -> CompiledSchedule:
    # Relays 1 and 2 both forward packet 0 to node 3 in slot 1, with
    # different arrivals: the kernel splits the slot so each scatter hits
    # distinct targets, and must keep the earliest surviving arrival.
    def column(*values):
        return array("i", values)

    return CompiledSchedule(
        key=None,
        num_slots=3,
        node_ids=(1, 2, 3),
        source_ids=(0,),
        starts=column(0, 3, 6, 7),
        senders=column(0, 0, 0, 1, 2, 1, 2),
        receivers=column(1, 2, 1, 3, 3, 2, 3),
        packets=column(0, 0, 1, 0, 0, 1, 1),
        arrivals=column(0, 0, 0, 2, 1, 1, 2),
        latencies=column(0, 0, 0, 1, 0, 0, 0),
        trees=column(-1, -1, -1, -1, -1, -1, -1),
    )


class TestMeasuredPrefixView:
    def test_repeated_target_in_one_slot_matches_scalar(self):
        schedule = _double_delivery_schedule()
        seeds = tuple(range(64))
        for num_slots in (1, 2, 3):
            batch = replay_batch(
                schedule, seeds, 0.3, num_packets=2, num_slots=num_slots
            )
            for i, seed in enumerate(seeds):
                _, scalar = _scalar_session(
                    schedule, seed, 0.3, num_packets=2, num_slots=num_slots
                )
                assert batch.metrics(i) == scalar, (num_slots, seed)

    def test_memoized_loss_free_row_survives_other_calls(self):
        # The loss-free row is memoized per view; lossy calls on the same
        # view and writes to a returned batch must not leak into it.
        schedule = compile_schedule("hypercube", 24, 3, num_packets=8)
        _, clean = _scalar_session(
            schedule, 0, 0.0, num_packets=6, num_slots=schedule.num_slots
        )
        first = replay_batch(schedule, (0, 1), 0.0, num_packets=6)
        assert first.node_delays is not None
        first.node_delays[:] = -7
        lossy = replay_batch(schedule, spawn_seeds(3, 4), 0.4, num_packets=6)
        for i, seed in enumerate(lossy.seeds):
            _, scalar = _scalar_session(
                schedule, seed, 0.4, num_packets=6, num_slots=schedule.num_slots
            )
            assert lossy.metrics(i) == scalar
        again = replay_batch(schedule, (2, 3, 4), (0.0, 0.0, 0.0), num_packets=6)
        assert again.metrics(0) == again.metrics(2) == clean
        assert again.node_delays is not None and (again.node_delays >= 0).all()


class TestReplayPointShim:
    def test_shim_equals_batch_of_one(self, schedule):
        for seed, rate in ((0, 0.0), (9, 0.25), (123, 0.6)):
            point = replay_point(
                schedule, num_packets=6, seed=seed, drop_rate=rate
            )
            batch = replay_batch(schedule, (seed,), rate, num_packets=6)
            assert point == batch.metrics(0), (seed, rate)

    def test_shim_keeps_historical_counters(self, schedule):
        registry = MetricsRegistry()
        with use_registry(registry):
            replay_point(schedule, num_packets=6, seed=1, drop_rate=0.1)
        points = registry.counter("sweep.points", scheme="multi-tree")
        assert points.value == 1
        tx = registry.counter("sweep.replayed_tx", scheme="multi-tree")
        assert tx.value == schedule.size
        hist = registry.histogram("sweep.max_delay", scheme="multi-tree")
        assert hist.count == 1
