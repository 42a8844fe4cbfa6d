"""Unit tests for the vectorized batch-replay kernel (``repro.exec.batch``).

The slot-for-slot identity against the scalar path and the engine is
property-tested in ``test_exec_properties.py``; here we pin the kernel's
contract surface — validation, chunking, mask determinism, counters, and
the ``BatchMetrics`` accessors.
"""

from __future__ import annotations

import math
import re
import warnings
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

    # The stream's contract: a drop bit is a pure function of (key, column).

    def test_columns_restrict_the_full_mask(self, schedule):
        seeds = [5, np.random.SeedSequence(8), 2**64 - 1]
        rates = [0.3, 0.3, 0.6]
        full = bernoulli_masks(schedule, rates, seeds)
        assert full is not None
        rng = np.random.default_rng(0)
        for columns in (
            np.sort(rng.choice(schedule.size, 50, replace=False)),
            rng.permutation(schedule.size)[:80],
            np.array([], dtype=np.intp),
        ):
            part = bernoulli_masks(schedule, rates, seeds, columns)
            assert part is not None and part.shape == (3, len(columns))
            assert np.array_equal(part, full[:, columns])

    def test_columns_outside_schedule_rejected(self, schedule):
        with pytest.raises(ReproError, match="mask columns"):
            bernoulli_masks(schedule, [0.1], [1], [schedule.size])
        with pytest.raises(ReproError, match="mask columns"):
            bernoulli_masks(schedule, [0.1], [1], [-1])

    @pytest.mark.parametrize("rate", [0.01, 0.2, 0.5])
    def test_drop_frequency_is_binomial(self, schedule, rate):
        sessions = 300  # x 385 transmissions: > 10^5 bits
        masks = bernoulli_masks(schedule, [rate] * sessions, range(sessions))
        assert masks is not None
        bits = masks.size
        assert bits >= 10**5
        sigma = (bits * rate * (1 - rate)) ** 0.5
        assert abs(int(masks.sum()) - bits * rate) < 5 * sigma

    def test_rate_zero_and_one_are_exact(self, schedule):
        masks = bernoulli_masks(schedule, [0.0, 1.0], [3, 3])
        assert masks is not None
        assert not masks[0].any() and masks[1].all()
        assert bernoulli_mask(schedule, 1.0, 7).all()

    def test_adjacent_seeds_and_columns_are_independent(self, schedule):
        masks = bernoulli_masks(schedule, [0.5] * 600, range(600))
        assert masks is not None
        even_columns = schedule.size - schedule.size % 2
        for first, second in (
            (masks[0::2], masks[1::2]),  # seeds s, s + 1
            (masks[:, 0:even_columns:2], masks[:, 1:even_columns:2]),  # i, i + 1
        ):
            pairs = first.size
            sigma = (pairs * 0.25 * 0.75) ** 0.5
            joint = int((first & second).sum())
            assert abs(joint - pairs / 4) < 5 * sigma

    def test_matches_python_reference(self, schedule):
        # The stream as specified, in Python integers masked to 64 bits.
        word = 2**64 - 1

        def mix(z):
            z ^= z >> 30
            z = z * 0xBF58476D1CE4E5B9 & word
            z ^= z >> 27
            z = z * 0x94D049BB133111EB & word
            return z ^ z >> 31

        golden = 0x9E3779B97F4A7C15
        for seed in (0, 1, 2**64 - 1, np.random.SeedSequence(11)):
            raw = (
                int(seed.generate_state(1, np.uint64)[0])
                if isinstance(seed, np.random.SeedSequence) else seed
            )
            key = mix(raw + golden & word)
            for rate in (0.05, 0.5):
                limit = math.ceil(rate * 2**53)
                want = [
                    i for i in range(schedule.size)
                    if mix(key + (i + 1) * golden & word) >> 11 < limit
                ]
                got = np.flatnonzero(bernoulli_mask(schedule, rate, seed))
                assert got.tolist() == want, (seed, rate)

    def test_golden_drops(self, schedule):
        # Any change to the stream shows here.
        assert np.flatnonzero(bernoulli_mask(schedule, 0.05, 0)).tolist() == [
            38, 39, 47, 51, 67, 112, 164, 172, 186, 237, 281, 315, 322,
        ]
        mask = bernoulli_mask(schedule, 0.05, np.random.SeedSequence(11))
        assert np.flatnonzero(mask).tolist() == [
            1, 12, 92, 94, 99, 109, 127, 128, 141, 147, 156, 176, 191, 204,
            225, 229, 238, 254, 270, 271, 275, 292, 294, 319, 325, 336, 356,
            375, 378,
        ]

    def test_wrapping_arithmetic_never_warns(self, schedule):
        seeds = [0, 2**64 - 1, np.uint64(2**63), np.random.SeedSequence(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bernoulli_masks(schedule, [0.5] * 4, seeds)
            bernoulli_mask(schedule, 0.5, 2**64 - 1)
            replay_batch(schedule, seeds, 0.5, num_packets=6)


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

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x", None, True])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_bad_seed_rejected_whatever_the_rate(self, schedule, seed, rate):
        with pytest.raises(ReproError, match=re.escape(f"seed {seed!r}")):
            replay_batch(schedule, (1, seed), rate, num_packets=4)
        with pytest.raises(ReproError, match=re.escape(f"seed {seed!r}")):
            bernoulli_mask(schedule, rate, seed)

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
