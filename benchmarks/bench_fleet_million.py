"""One million sessions through the batch kernel in bounded memory.

The v2.0 scaling demonstration: compile one schedule, derive a million
per-session int seeds from one master seed
(:func:`~repro.exec.batch.spawn_seeds`, one uint64 array), and stream chunked
:func:`~repro.exec.batch.replay_batch` calls, each scored by
:func:`~repro.service.score_batch_sessions` into one
:class:`~repro.service.SessionColumns` and folded, one ``np.bincount`` per
pooled population, straight into a
:class:`~repro.service.FleetAggregator` that keeps no per-session rows,
beside the chunk's all-admitted :class:`~repro.service.DecisionTable`.
Nothing in the pipeline scales with the full population: the kernel's
working set is capped by its element budget, each chunk's columns are
dropped after the fold, and the aggregator holds three exact
``value -> count`` tables of slot and packet counts (a handful of entries
each); no :class:`~repro.service.SessionSLO` and no per-session decision
is ever built.

The chunk decomposition is also a correctness claim — a session's score is
a function of ``(schedule, seed, drop_rate)`` alone, so slicing the million
seeds into any chunking yields the same pooled percentiles.  The bench
spot-checks this by re-scoring the first chunk's sessions solo.

The bench asserts no speed bound, so it records no time; perfbench's
``fleet_bulk`` workload measures the same pipeline per session.
"""

from __future__ import annotations

import numpy as np
from conftest import report

from repro.exec import compile_schedule, replay_batch, spawn_seeds
from repro.service import DecisionTable
from repro.service.slo import FleetAggregator, score_batch_sessions

NUM_SESSIONS = 1_000_000
CHUNK = 50_000
NUM_PACKETS = 8
DROP_RATE = 0.01


def _admitted(session_ids: np.ndarray) -> DecisionTable:
    """Every session admitted at slot 0 with no wait (status code 0)."""
    zeros = np.zeros(len(session_ids), dtype=np.int64)
    return DecisionTable(session_ids, zeros, zeros, zeros, zeros, zeros, zeros, zeros)


def test_million_sessions_bounded_memory():
    schedule = compile_schedule("multi-tree", 31, 2, num_packets=NUM_PACKETS)
    seeds = spawn_seeds(0, NUM_SESSIONS)
    aggregator = FleetAggregator(keep_sessions=False)

    for lo in range(0, NUM_SESSIONS, CHUNK):
        chunk_seeds = seeds[lo : lo + CHUNK]
        batch = replay_batch(
            schedule,
            chunk_seeds,
            DROP_RATE,
            num_packets=NUM_PACKETS,
            keep_node_columns=True,
        )
        aggregator.add_decisions(_admitted(np.arange(lo, lo + batch.num_sessions)))
        aggregator.add_sessions(
            score_batch_sessions(
                batch,
                session_ids=range(lo, lo + batch.num_sessions),
                labels=("multi-tree-31",) * batch.num_sessions,
            )
        )
    fleet = aggregator.report(cache_hits=NUM_SESSIONS - 1, cache_misses=1)

    assert fleet.num_sessions == NUM_SESSIONS
    assert fleet.admitted == NUM_SESSIONS
    # Bounded memory: no per-session SLO list survives aggregation.
    assert len(fleet.sessions) == 0
    assert 0 <= fleet.startup_p50 <= fleet.startup_p99 <= fleet.startup_max

    # Chunk-independence spot check: session 0 scored from a batch of one
    # equals session 0 scored inside its 50k-session chunk.
    solo = replay_batch(
        schedule, seeds[:1], DROP_RATE, num_packets=NUM_PACKETS
    )
    first_chunk = replay_batch(
        schedule, seeds[:CHUNK], DROP_RATE, num_packets=NUM_PACKETS
    )
    assert solo.metrics(0) == first_chunk.metrics(0)

    lines = [
        f"one million sessions (multi-tree N=31 d=2, P={NUM_PACKETS}, "
        f"drop rate {DROP_RATE}, chunks of {CHUNK}):",
        "",
        f"  1 compile, {NUM_SESSIONS // CHUNK} kernel calls, "
        "no per-session SLO kept (exact tables)",
        "  chunk-independent: session 0 scores the same solo and in its chunk",
        f"  startup delay: p50={fleet.startup_p50} p99={fleet.startup_p99} "
        f"max={fleet.startup_max}",
        f"  playback delay p99={fleet.delay_p99} "
        f"buffer p99={fleet.buffer_p99} "
        f"rebuffer_mean={fleet.rebuffer_mean:.4f} "
        f"goodput={fleet.goodput_mean:.3f}",
    ]
    report("fleet_million", "\n".join(lines))
