"""Property-based equivalence: compiled replay == engine playback, any config.

The fixed cases in ``test_exec_compiler.py`` pin a handful of known
configurations; these properties randomize ``(scheme, N, d)`` over every
compilable scheme and assert the two execution paths agree slot-for-slot —
the invariant the whole ``exec`` layer (and the fleet service on top of it)
rests on.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import simulate
from repro.core.metrics import collect_repair_metrics, summarize_lossy_playback
from repro.exec.batch import replay_batch, spawn_seeds
from repro.exec.compiler import COMPILABLE_SCHEMES, build_protocol, compile_protocol
from repro.exec.replay import bernoulli_mask, replay_arrivals

CONFIG = st.tuples(
    st.sampled_from(COMPILABLE_SCHEMES),
    st.integers(min_value=3, max_value=34),   # N
    st.integers(min_value=2, max_value=4),    # d
)


def _compile_and_reference(scheme, n, d, packets=6):
    protocol = build_protocol(scheme, n, d)
    num_slots = protocol.slots_for_packets(packets)
    compiled = compile_protocol(build_protocol(scheme, n, d), num_slots)
    reference = simulate(build_protocol(scheme, n, d), num_slots)
    return compiled, reference, num_slots


class TestCompiledReplayEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(CONFIG)
    def test_transmissions_identical_slot_for_slot(self, config):
        scheme, n, d = config
        compiled, reference, num_slots = _compile_and_reference(scheme, n, d)
        by_slot: dict[int, list] = {s: [] for s in range(num_slots)}
        for tx in reference.transmissions:
            by_slot[tx.slot].append((tx.sender, tx.receiver, tx.packet))
        for slot in range(num_slots):
            batch = [
                (tx.sender, tx.receiver, tx.packet) for tx in compiled.batch(slot)
            ]
            assert batch == by_slot[slot], (scheme, n, d, slot)

    @settings(max_examples=30, deadline=None)
    @given(CONFIG)
    def test_engine_free_replay_matches_engine_arrivals(self, config):
        scheme, n, d = config
        compiled, reference, _ = _compile_and_reference(scheme, n, d)
        assert replay_arrivals(compiled) == reference.all_arrivals(), (scheme, n, d)

    @settings(max_examples=20, deadline=None)
    @given(CONFIG, st.integers(min_value=0, max_value=2**31 - 1))
    def test_lossy_replay_never_beats_lossfree_arrivals(self, config, seed):
        # Under the zero-slack loss model a dropped transmission only prunes:
        # every surviving (node, packet) pair arrives exactly when the
        # loss-free schedule delivered it, never earlier.
        scheme, n, d = config
        compiled, reference, _ = _compile_and_reference(scheme, n, d)
        mask = bernoulli_mask(compiled, 0.2, seed)
        lossy = replay_arrivals(compiled, drop_mask=mask)
        clean = reference.all_arrivals()
        for node, trace in lossy.items():
            for packet, slot in trace.items():
                assert slot == clean[node][packet], (scheme, n, d, node, packet)


RATES = st.sampled_from([0.0, 0.05, 0.2, 0.5])

BATCH_CONFIG = st.tuples(
    st.sampled_from(COMPILABLE_SCHEMES),
    st.integers(min_value=3, max_value=34),            # N
    st.integers(min_value=2, max_value=4),             # d
    RATES,                                             # drop_rate
    st.integers(min_value=1, max_value=7),             # batch size
)


def _assert_matches_scalar(compiled, batch, horizon):
    """Every session of ``batch`` equals its scalar replay, node for node."""
    num_packets = batch.num_packets
    for i, (seed, rate) in enumerate(zip(batch.seeds, batch.drop_rates)):
        mask = bernoulli_mask(compiled, rate, seed)
        arrivals = replay_arrivals(compiled, num_slots=horizon, drop_mask=mask)
        scalar = collect_repair_metrics(
            arrivals, num_packets=num_packets, num_slots=horizon
        )
        assert batch.metrics(i) == scalar, (i, seed, rate)
        for row, node in enumerate(compiled.node_ids):
            summary = summarize_lossy_playback(arrivals[node], num_packets)
            assert batch.node_delays[i, row] == summary.startup_delay, (i, node)
            assert batch.node_buffers[i, row] == summary.buffer_peak, (i, node)


class TestBatchKernelEquivalence:
    """The v2.0 invariant: one vectorized pass == B scalar replays == engine.

    The batch kernel is the execution path for sweeps and the fleet, so
    its identity with the scalar interpreter (and, via the scalar
    interpreter, with the event engine) is load-bearing for every number
    the repo reports.
    """

    @settings(max_examples=25, deadline=None)
    @given(BATCH_CONFIG, st.integers(min_value=0, max_value=2**31 - 1))
    def test_batched_matches_scalar_replay_per_session(self, config, master):
        # A scalar rate of 0.0 is an all-zero vector: one replayed row.
        scheme, n, d, rate, batch_size = config
        compiled, _, num_slots = _compile_and_reference(scheme, n, d)
        seeds = spawn_seeds(master, batch_size)
        batch = replay_batch(compiled, seeds, rate, num_packets=6)
        _assert_matches_scalar(compiled, batch, num_slots)

    @settings(max_examples=20, deadline=None)
    @given(CONFIG)
    def test_lossfree_batch_matches_engine_metrics(self, config):
        scheme, n, d = config
        compiled, reference, num_slots = _compile_and_reference(scheme, n, d)
        batch = replay_batch(compiled, (0,), 0.0, num_packets=6)
        engine = collect_repair_metrics(
            reference.all_arrivals(), num_packets=6, num_slots=num_slots
        )
        assert batch.metrics(0) == engine, (scheme, n, d)

    @settings(max_examples=30, deadline=None)
    @given(BATCH_CONFIG, st.integers(min_value=0, max_value=2**31 - 1), st.data())
    def test_node_columns_match_scalar_at_any_horizon_and_prefix(
        self, config, master, data
    ):
        # Truncated horizons are the churned-viewer path; prefixes above the
        # compiled packets have columns that never arrive, prefixes below it
        # leave transmissions unscored; rate vectors mix zero and lossy
        # sessions.
        scheme, n, d, _, batch_size = config
        compiled, _, num_slots = _compile_and_reference(scheme, n, d)
        horizon = data.draw(st.integers(min_value=1, max_value=num_slots))
        compiled_packets = max(compiled.packets) + 1
        num_packets = data.draw(
            st.integers(min_value=1, max_value=compiled_packets + 3)
        )
        rates = data.draw(
            st.lists(RATES, min_size=batch_size, max_size=batch_size)
        )
        seeds = spawn_seeds(master, batch_size)
        batch = replay_batch(
            compiled, seeds, rates, num_packets=num_packets, num_slots=horizon
        )
        _assert_matches_scalar(compiled, batch, horizon)

    @settings(max_examples=15, deadline=None)
    @given(BATCH_CONFIG, st.integers(min_value=0, max_value=2**31 - 1))
    def test_batch_order_is_irrelevant(self, config, master):
        # Session i's score is a function of (seed_i, rate) alone — not of
        # its position in the batch or of who shares the batch with it.
        scheme, n, d, rate, batch_size = config
        compiled, _, _ = _compile_and_reference(scheme, n, d)
        seeds = spawn_seeds(master, batch_size)
        forward = replay_batch(compiled, seeds, rate, num_packets=6)
        reversed_ = replay_batch(compiled, seeds[::-1], rate, num_packets=6)
        for i in range(batch_size):
            assert forward.metrics(i) == reversed_.metrics(batch_size - 1 - i)
