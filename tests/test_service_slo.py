"""SLO scoring: pooled percentiles, the batch scorer, the streaming fold."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.core.metrics import summarize_lossy_playback
from repro.exec.batch import BatchMetrics, replay_batch
from repro.exec.compiler import COMPILABLE_SCHEMES, compile_schedule
from repro.exec.replay import bernoulli_mask, replay_arrivals
from repro.reporting.export import fleet_report_to_dict
from repro.service.admission import REASONS, STATUSES, AdmissionDecision, DecisionTable
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionSLO,
    SessionSLOTable,
    pooled_percentile,
    score_batch_sessions,
)
from slo_oracle import slos


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


def _table(decisions):
    """A decision table holding ``decisions`` (rows) in order."""
    rows = [
        (
            d.session_id, STATUSES.index(d.status), d.arrival_slot, d.start_slot,
            d.wait_slots, d.degree, d.duration, REASONS.index(d.reason),
        )
        for d in decisions
    ]
    return DecisionTable(*np.array(rows, dtype=np.int64).reshape(-1, 8).T)


def _columns(delays, buffers, *, residual, available, num_packets, num_slots):
    """A one-session kernel result built by hand from per-node columns."""
    return BatchMetrics(
        num_sessions=1,
        num_nodes=len(delays),
        num_packets=np.array([num_packets]),
        num_slots=np.array([num_slots]),
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
    (slo,) = slos(score_batch_sessions(
        batch, session_ids=[session_id], labels=["k"],
        wait_slots=[wait], statuses=[status],
    ))
    return slo


def _unit(delays, *, first_id=0, waits=None, num_nodes=1):
    """One scored unit of hand-built sessions, each ``num_nodes`` nodes at
    one delay and buffer 1; a lossy batch, so rows may differ."""
    total = len(delays)
    node_delays = np.repeat(np.array(delays, dtype=np.int32)[:, None], num_nodes, axis=1)
    node_buffers = np.ones_like(node_delays)
    batch = BatchMetrics(
        num_sessions=total,
        num_nodes=num_nodes,
        num_packets=np.ones(total, dtype=np.int64),
        num_slots=np.full(total, 10),
        seeds=tuple(range(total)),
        drop_rates=(0.01,) * total,
        residual=np.zeros(total, dtype=np.int64),
        available=np.full(total, num_nodes, dtype=np.int64),
        max_delay=node_delays.max(axis=1).astype(np.int64),
        avg_delay=node_delays.mean(axis=1),
        max_buffer=node_buffers.max(axis=1).astype(np.int64),
        avg_buffer=node_buffers.mean(axis=1),
        node_delays=node_delays,
        node_buffers=node_buffers,
    )
    return score_batch_sessions(
        batch,
        session_ids=list(range(first_id, first_id + total)),
        labels=["k"] * total,
        wait_slots=waits,
    )


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


#: SessionSLO fields that SessionColumns holds as NumPy columns.
COLUMN_FIELDS = (
    "wait_slots", "startup_delay", "rebuffer_ratio", "goodput",
    "delay_p50", "delay_p95", "delay_p99", "buffer_p50", "buffer_p99",
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
        for name in COLUMN_FIELDS:
            assert getattr(scored, name).tolist() == [
                getattr(slo, name) for slo in expected
            ], name
        assert slos(scored) == expected


@pytest.mark.parametrize("rate", [0.0, 0.2], ids=["loss-free", "lossy"])
def test_percentile_columns_have_one_int64_row_per_session(rate):
    schedule = compile_schedule("multi-tree", 15, 3, num_packets=6)
    batch = replay_batch(schedule, [1, 2, 3], rate, num_packets=6)
    columns = score_batch_sessions(batch, session_ids=[0, 1, 2], labels=["k"] * 3)
    assert columns.loss_free == (rate == 0.0)
    for name in ("delay_p50", "delay_p95", "delay_p99", "buffer_p50", "buffer_p99"):
        column = getattr(columns, name)
        assert column.dtype == np.int64 and column.shape == (3,), name


def _ratio_units(rows):
    """Lossy scored units of hand-built ``(session_id, num_nodes,
    num_packets, num_slots, residual, available)`` rows, one unit per node
    count (rows in order), every node at delay 2 and buffer 1."""
    by_nodes = {}
    for row in rows:
        by_nodes.setdefault(row[1], []).append(row)
    for num_nodes, unit in by_nodes.items():
        ids, _, packets, horizons, residual, available = (
            np.array(column, dtype=np.int64) for column in zip(*unit)
        )
        total = len(unit)
        node_delays = np.full((total, num_nodes), 2, dtype=np.int32)
        batch = BatchMetrics(
            num_sessions=total,
            num_nodes=num_nodes,
            num_packets=packets,
            num_slots=horizons,
            seeds=tuple(ids.tolist()),
            drop_rates=(0.01,) * total,
            residual=residual,
            available=available,
            max_delay=np.full(total, 2, dtype=np.int64),
            avg_delay=np.full(total, 2.0),
            max_buffer=np.ones(total, dtype=np.int64),
            avg_buffer=np.ones(total),
            node_delays=node_delays,
            node_buffers=np.ones_like(node_delays),
        )
        yield score_batch_sessions(batch, session_ids=ids.tolist(), labels=["k"] * total)


def _fold(decisions, units, **cache):
    aggregator = FleetAggregator()
    aggregator.add_decisions(_table(decisions))
    for columns in units:
        aggregator.add_sessions(columns)
    return aggregator.report(**cache)


class TestAggregateFleet:
    """``FleetAggregator.add_sessions`` in exact mode."""

    def test_admission_tallies(self):
        decisions = [
            _decision(0, "admitted"),
            _decision(1, "admitted", wait=4),
            _decision(2, "degraded"),
            _decision(3, "rejected"),
        ]
        report = _fold(
            decisions, [_unit([2, 2, 2], waits=[0, 4, 0])],
            cache_hits=2, cache_misses=1,
        )
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
        fast = _unit([2], num_nodes=50)
        slow = _unit([9], first_id=1)
        decisions = [_decision(0, "admitted"), _decision(1, "admitted")]
        report = _fold(decisions, [fast, slow])
        assert report.delay_p50 == 2
        assert report.delay_p99 == 9
        assert report.startup_max == 9

    def test_split_batches_fold_identically(self):
        # The runner folds one executor unit at a time; how sessions are
        # split into add_sessions calls must not change the report.
        decisions = [_decision(i, "admitted") for i in range(6)]
        delays = [2 + i % 3 for i in range(6)]
        waits = [i % 2 for i in range(6)]
        whole = _fold(decisions, [_unit(delays, waits=waits)])
        assert (whole.startup_p50, whole.startup_max) == (3, 5)
        halves = [
            _unit(delays[:2], waits=waits[:2]),
            _unit(delays[2:], first_id=2, waits=waits[2:]),
        ]
        assert _fold(decisions, halves) == whole
        singles = [
            _unit([delays[i]], first_id=i, waits=[waits[i]]) for i in range(6)
        ]
        assert _fold(decisions, singles) == whole

    def test_empty_fleet_raises(self):
        with pytest.raises(ReproError):
            _fold([], [])

    def test_all_rejected_raises(self):
        with pytest.raises(ReproError):
            _fold([_decision(0, "rejected")], [])

    def test_dict_round_trip_through_json(self):
        decisions = [_decision(0, "admitted"), _decision(1, "rejected")]
        report = _fold(decisions, [_unit([2])], cache_hits=1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert FleetSLOReport.from_dict(payload) == report

    def test_list_of_slos_is_rejected(self):
        slo = _score(_columns([2], [1], residual=0, available=1,
                              num_packets=1, num_slots=10))
        with pytest.raises(ReproError, match="SessionColumns"):
            FleetAggregator().add_sessions([slo])


def _lossy_batch(rate=0.2, sessions=12):
    schedule = compile_schedule("multi-tree", 31, 3, num_packets=8)
    return replay_batch(
        schedule, list(range(100, 100 + sessions)), rate, num_packets=8,
        keep_node_columns=True,
    )


class TestColumnarPath:
    """The columns, the records built from them and the per-unit fold."""

    def test_slos_equal_per_row_reference(self):
        # Per row: a Counter over the node columns and pooled_percentile,
        # the scalar definition of every SessionSLO field.
        batch = _lossy_batch()
        waits = [i % 3 for i in range(batch.num_sessions)]
        columns = score_batch_sessions(
            batch, session_ids=list(range(batch.num_sessions)),
            labels=["k"] * batch.num_sessions, wait_slots=waits,
        )
        assert not columns.loss_free
        for i, slo in enumerate(slos(columns)):
            num_packets = int(batch.num_packets[i])
            cells = batch.num_nodes * num_packets
            delays = Counter(batch.node_delays[i].tolist())
            buffers = Counter(batch.node_buffers[i].tolist())
            assert slo == SessionSLO(
                session_id=i, label="k", status="admitted", wait_slots=waits[i],
                startup_delay=max(delays) + waits[i],
                rebuffer_ratio=int(batch.residual[i]) / cells,
                delay_p50=pooled_percentile(delays, 50),
                delay_p95=pooled_percentile(delays, 95),
                delay_p99=pooled_percentile(delays, 99),
                buffer_p50=pooled_percentile(buffers, 50),
                buffer_p99=pooled_percentile(buffers, 99),
                goodput=int(batch.available[i]) / (batch.num_nodes * int(batch.num_slots[i])),
                num_nodes=batch.num_nodes, num_packets=num_packets,
                delay_counts=tuple(sorted(delays.items())),
                buffer_counts=tuple(sorted(buffers.items())),
            )

    @pytest.mark.parametrize("keep_sessions", [True, False], ids=["exact", "sketch"])
    def test_loss_free_multiplicity_fold_equals_full_fold(self, keep_sessions):
        batch = _lossy_batch(rate=0.0, sessions=9)
        columns = score_batch_sessions(
            batch, session_ids=list(range(9)), labels=["k"] * 9,
            wait_slots=[0, 3, 1, 0, 7, 2, 0, 0, 5],
        )
        assert columns.loss_free
        full = replace(columns, loss_free=False)
        assert slos(columns) == slos(full)
        reports = []
        for unit in (columns, full):
            aggregator = FleetAggregator(keep_sessions=keep_sessions)
            aggregator.add_decisions(_table(_decision(i, "admitted") for i in range(9)))
            aggregator.add_sessions(unit)
            reports.append(aggregator.report())
        assert reports[0] == reports[1]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),  # nodes
                st.integers(min_value=1, max_value=12),  # measured prefix
                st.integers(min_value=1, max_value=40),  # horizon
                st.integers(min_value=0, max_value=10**6),  # residual draw
                st.integers(min_value=0, max_value=10**6),  # available draw
            ),
            min_size=1, max_size=30,
        ),
        st.data(),
    )
    def test_any_order_and_split_folds_to_the_exact_means(self, draws, data):
        rows = [
            (i, nodes, packets, horizon, residual % (nodes * packets + 1),
             available % (nodes * packets + 1))
            for i, (nodes, packets, horizon, residual, available) in enumerate(draws)
        ]
        total = len(rows)
        order = data.draw(st.permutations(rows), label="order")
        cuts = sorted(data.draw(
            st.sets(st.integers(min_value=1, max_value=total), max_size=5),
            label="cuts",
        ) | {total})
        reports = []
        for parts in ([rows], [order[lo:hi] for lo, hi in zip([0, *cuts], cuts)]):
            aggregator = FleetAggregator()
            aggregator.add_decisions(_table([_decision(0, "admitted")]))
            for part in parts:
                for unit in _ratio_units(part):
                    aggregator.add_sessions(unit)
            reports.append(aggregator.report())
        assert reports[1] == reports[0]
        report = reports[0]
        assert report.rebuffer_mean == float(sum(
            Fraction(residual, nodes * packets) for _, nodes, packets, _, residual, _ in rows
        ) / total)
        assert report.goodput_mean == float(sum(
            Fraction(available, nodes * horizon) for _, nodes, _, horizon, _, available in rows
        ) / total)
        assert report.rebuffer_max == max(
            residual / (nodes * packets) for _, nodes, packets, _, residual, _ in rows
        )


def _random_units(rng: random.Random, sizes: list[int]) -> list:
    """Scored units of ``sizes`` sessions with shuffled ids: lossy and
    loss-free, several labels and statuses, some with ABR QoE dicts."""
    ids = list(range(sum(sizes)))
    rng.shuffle(ids)
    units, at = [], 0
    for total in sizes:
        nodes = rng.randint(1, 5)
        loss_free = rng.random() < 0.4
        if loss_free:
            delays = np.array([[rng.randint(0, 9) for _ in range(nodes)]] * total)
            buffers = np.array([[rng.randint(0, 6) for _ in range(nodes)]] * total)
            packets = np.full(total, rng.randint(1, 8))
            horizons = np.full(total, rng.randint(8, 30))
            residual = np.zeros(total, dtype=np.int64)
        else:
            delays = np.array([[rng.randint(0, 9) for _ in range(nodes)] for _ in range(total)])
            buffers = np.array([[rng.randint(0, 6) for _ in range(nodes)] for _ in range(total)])
            packets = np.array([rng.randint(1, 8) for _ in range(total)])
            horizons = np.array([rng.randint(8, 30) for _ in range(total)])
            residual = np.array([rng.randint(0, nodes * p) for p in packets.tolist()])
        batch = BatchMetrics(
            num_sessions=total,
            num_nodes=nodes,
            num_packets=packets,
            num_slots=horizons,
            seeds=tuple(range(total)),
            drop_rates=(0.0 if loss_free else 0.1,) * total,
            residual=residual,
            available=nodes * packets - residual,
            max_delay=delays.max(axis=1),
            avg_delay=delays.mean(axis=1),
            max_buffer=buffers.max(axis=1),
            avg_buffer=buffers.mean(axis=1),
            node_delays=delays.astype(np.int32),
            node_buffers=buffers.astype(np.int32),
        )
        columns = score_batch_sessions(
            batch,
            session_ids=ids[at:at + total],
            labels=[rng.choice(("mt-15", "chain-8", "abr")) for _ in range(total)],
            wait_slots=[rng.randint(0, 5) for _ in range(total)],
            statuses=[rng.choice(("admitted", "degraded")) for _ in range(total)],
        )
        assert columns.loss_free == loss_free
        if rng.random() < 0.5:
            columns = replace(columns, qoe=tuple(
                {"tier": rng.choice(("premium", "standard")), "score": rng.random()}
                if rng.random() < 0.5 else None
                for _ in range(total)
            ))
        units.append(columns)
        at += total
    return units


class TestSessionSLOTable:
    """The report's columnar sessions against the v15 row objects
    (``tests/slo_oracle.py``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_table_equals_the_oracle_rows(self, sizes, rng):
        units = _random_units(rng, sizes)
        expected = sorted(
            (row for unit in units for row in slos(unit)), key=lambda row: row.session_id
        )
        rng.shuffle(units)
        report = _fold([_decision(row.session_id, row.status) for row in expected], units)
        table = report.sessions
        assert isinstance(table, SessionSLOTable)
        assert tuple(table) == tuple(expected)
        assert [table[i] for i in range(-len(table), len(table))] == expected * 2
        assert table.rows() == [row.row() for row in expected]
        assert table.to_dicts() == [asdict(row) for row in expected]

        # The JSON export is the v15 text: asdict of the report's fields,
        # with asdict of each row as its sessions.
        v15 = asdict(replace(report, sessions=()))
        v15["sessions"] = [asdict(row) for row in expected]
        envelope = fleet_report_to_dict(report)
        assert json.dumps(envelope, indent=1) == json.dumps({**envelope, "report": v15}, indent=1)

        # Round trips compare row contents, not the shared-span layout.
        assert FleetSLOReport.from_dict(report.to_dict()) == report
        assert FleetSLOReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report
        assert SessionSLOTable.from_rows(expected) == table

        # One histogram count more changes the row, the report and the repr.
        pairs = table.delay_pairs.copy()
        pairs[rng.randrange(len(pairs)), 1] += 1
        bumped = SessionSLOTable(*(
            pairs if name == "delay_pairs" else getattr(table, name)
            for name in SessionSLOTable.__slots__
        ))
        assert bumped != table
        assert replace(report, sessions=bumped) != report
        assert repr(replace(report, sessions=bumped)) != repr(report)

    def test_empty_table(self):
        empty = SessionSLOTable.from_rows(())
        assert len(empty) == 0 and tuple(empty) == () and empty.rows() == []
        assert empty.delay_span.shape == (0, 2) and empty.delay_pairs.shape == (0, 2)
        with pytest.raises(IndexError):
            empty[0]

    def test_loss_free_rows_share_one_span(self):
        batch = _lossy_batch(rate=0.0, sessions=5)
        columns = score_batch_sessions(batch, session_ids=[4, 3, 2, 1, 0], labels=["k"] * 5)
        report = _fold([_decision(i, "admitted") for i in range(5)], [columns])
        table = report.sessions
        assert table.session_id.tolist() == [0, 1, 2, 3, 4]
        assert len({tuple(span) for span in table.delay_span.tolist()}) == 1
        assert tuple(table) == tuple(sorted(slos(columns), key=lambda row: row.session_id))
