"""Admission control: reject/queue/degrade policies against capacity budgets."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from admission_oracle import ReferenceSessionManager
from repro.core.errors import ReproError
from repro.obs import EventTracer, MetricsRegistry, RingBufferSink
from repro.obs.events import EventSink
from repro.obs.registry import use_registry
from repro.service.admission import SessionManager, watched_slots
from repro.service.spec import CapacityModel, FleetSpec, SessionSpec, SessionTable


def _table(arrival_slots, spec=None, fractions=None):
    spec = spec if spec is not None else SessionSpec(num_nodes=10, degree=3)
    count = len(arrival_slots)
    return SessionTable(
        (spec,), np.arange(count), np.zeros(count), arrival_slots, np.arange(count),
        np.full(count, np.nan) if fractions is None else fractions,
    )


def _horizon(slots=10):
    def horizon_of(spec, degree):
        return slots

    return horizon_of


class TestRejectPolicy:
    def test_overload_rejects_excess(self):
        # fanout budget 6 fits two d=3 sessions; the third (same slot) is out.
        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0), policy="reject"
        )
        decisions = manager.admit_all(_table([0, 0, 0]), _horizon())
        assert [d.status for d in decisions] == ["admitted", "admitted", "rejected"]
        assert decisions[2].reason == "capacity"

    def test_departures_free_capacity(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0), policy="reject"
        )
        # Session 0 holds [0, 10); arrival at 10 fits again, arrival at 5 not.
        decisions = manager.admit_all(_table([0, 5, 10]), _horizon(10))
        assert [d.status for d in decisions] == ["admitted", "rejected", "admitted"]

    def test_backbone_budget_binds_independently(self):
        manager = SessionManager(
            CapacityModel(source_fanout=100.0, backbone=15.0), policy="reject"
        )
        decisions = manager.admit_all(_table([0, 0]), _horizon())
        assert [d.status for d in decisions] == ["admitted", "rejected"]


class TestQueuePolicy:
    def test_queued_session_starts_at_departure(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        decisions = manager.admit_all(_table([0, 2]), _horizon(10))
        assert decisions[0].start_slot == 0
        assert decisions[1].status == "admitted"
        assert decisions[1].start_slot == 10
        assert decisions[1].wait_slots == 8

    def test_wait_bound_times_out(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=4,
        )
        decisions = manager.admit_all(_table([0, 2]), _horizon(10))
        assert decisions[1].status == "rejected"
        assert decisions[1].reason == "queue_timeout"

    def test_fifo_no_overtaking(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        decisions = manager.admit_all(_table([0, 1, 2]), _horizon(10))
        starts = [d.start_slot for d in decisions]
        assert starts == [0, 10, 20]
        assert [d.wait_slots for d in decisions] == [0, 9, 18]

    def test_drain_over_commits_past_now(self):
        """The recorded queue-drain over-commit, kept as is: the drain
        starts its clock at the head's next departure even when that lies
        after ``now``, so the head is admitted at a future slot and a
        newcomer at ``now`` sees an active set without a session that is
        still running."""
        big = SessionSpec(num_nodes=7, degree=4)
        small = SessionSpec(scheme="chain", num_nodes=7, degree=1)
        mid = SessionSpec(num_nodes=7, degree=3)
        table = SessionTable(
            (big, small, mid), [0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 2],
            [math.nan] * 3,
        )
        manager = SessionManager(
            CapacityModel(source_fanout=4.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        a, b, c = manager.admit_all(table, _horizon(10))
        assert (a.status, a.start_slot) == ("admitted", 0)
        assert (b.status, b.start_slot, b.wait_slots) == ("admitted", 10, 9)
        # C overtakes B and runs during slots 2-11 beside A (2-9): a true
        # fan-out of 7 against the budget of 4, reported as a peak of 4.
        assert (c.status, c.start_slot) == ("admitted", 2)
        assert manager.peak_fanout == 4.0


class TestDegradePolicy:
    def test_degrades_to_fitting_degree(self):
        spec = SessionSpec(num_nodes=10, degree=4)
        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0),
            policy="degrade", min_degree=2,
        )
        decisions = manager.admit_all(_table([0, 0], spec), _horizon())
        assert decisions[0].status == "admitted"
        assert decisions[0].degree == 4
        assert decisions[1].status == "degraded"
        assert decisions[1].degree == 2  # only 2 fanout units were left

    def test_rejects_below_min_degree(self):
        spec = SessionSpec(num_nodes=10, degree=4)
        manager = SessionManager(
            CapacityModel(source_fanout=5.0, backbone=1000.0),
            policy="degrade", min_degree=3,
        )
        decisions = manager.admit_all(_table([0, 0], spec), _horizon())
        assert decisions[1].status == "rejected"

    def test_duration_resolved_at_degraded_degree(self):
        spec = SessionSpec(num_nodes=10, degree=4)
        seen = []

        def horizon_of(kind, degree):
            seen.append(degree)
            return 5 + degree

        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0),
            policy="degrade", min_degree=2,
        )
        decisions = manager.admit_all(_table([0, 0], spec), horizon_of)
        assert seen == [4, 2]
        assert decisions[1].duration == 7


class TestChurn:
    def test_churned_session_holds_its_watched_prefix(self):
        manager = SessionManager(CapacityModel(source_fanout=3.0, backbone=1000.0))
        decisions = manager.admit_all(
            _table([0, 0], fractions=[0.5, math.nan]), _horizon(9)
        )
        assert [d.duration for d in decisions] == [4, 9]

    def test_watched_slots_rule(self):
        assert watched_slots(9, math.nan) == 9
        assert watched_slots(9, 0.5) == 4
        assert watched_slots(1, 0.5) == 1  # never below one slot


class TestObservability:
    def test_counters_and_peaks(self):
        registry = MetricsRegistry()
        manager = SessionManager(
            CapacityModel(source_fanout=6.0, backbone=1000.0), policy="reject"
        )
        with use_registry(registry):
            manager.admit_all(_table([0, 0, 0]), _horizon())
        counters = {
            (row["name"], row["labels"]): row["value"]
            for row in registry.rows()
            if row["kind"] == "counter"
        }
        assert counters[("fleet.sessions", "status=admitted")] == 2
        assert counters[("fleet.sessions", "status=rejected")] == 1
        gauges = {
            row["name"]: row["value"]
            for row in registry.rows()
            if row["kind"] == "gauge"
        }
        assert gauges["fleet.peak_fanout"] == 6.0
        assert gauges["fleet.peak_backbone"] == 20.0
        assert manager.peak_fanout == 6.0
        assert manager.peak_backbone == 20.0

    def test_events_emitted(self):
        sink = RingBufferSink()
        tracer = EventTracer(sink)
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64, tracer=tracer,
        )
        manager.admit_all(_table([0, 1]), _horizon(10))
        names = [e.name for e in sink.events]
        assert names.count("session_admitted") == 2
        assert names.count("session_queued") == 1

    def test_single_terminal_status_per_session(self):
        # A queued-then-admitted (or queued-then-timed-out) session must
        # land on exactly ONE fleet.sessions status: the terminal one.
        # Queue transit is observable separately (fleet.queue.entered /
        # fleet.queue.depth), never in the status totals.
        registry = MetricsRegistry()
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=12,
        )
        with use_registry(registry):
            # 0 admitted at 0; 1 queued then admitted at 10; 2 queued then
            # timed out (wait would be 20 - 2 > 12).
            decisions = manager.admit_all(_table([0, 1, 2]), _horizon(10))
        statuses = [d.status for d in decisions]
        assert statuses == ["admitted", "admitted", "rejected"]
        counters = {
            (row["name"], row["labels"]): row["value"]
            for row in registry.rows()
            if row["kind"] == "counter"
        }
        status_total = sum(
            value for (name, _), value in counters.items()
            if name == "fleet.sessions"
        )
        assert status_total == 3  # one terminal status per offered session
        assert counters[("fleet.sessions", "status=admitted")] == 2
        assert counters[("fleet.sessions", "status=rejected")] == 1
        assert ("fleet.sessions", "status=queued") not in counters
        assert counters[("fleet.queue.entered", "")] == 2
        gauges = {
            row["name"]: row["value"]
            for row in registry.rows()
            if row["kind"] == "gauge"
        }
        assert gauges["fleet.queue.depth"] == 0  # everyone left the queue

    def test_status_totals_sum_to_offered_across_policies(self):
        for policy in ("reject", "queue", "degrade"):
            registry = MetricsRegistry()
            manager = SessionManager(
                CapacityModel(source_fanout=6.0, backbone=1000.0),
                policy=policy, max_queue_slots=4, min_degree=2,
            )
            spec = SessionSpec(num_nodes=10, degree=4)
            with use_registry(registry):
                manager.admit_all(_table([0, 0, 0, 0], spec), _horizon(40))
            total = sum(
                row["value"]
                for row in registry.rows()
                if row["kind"] == "counter" and row["name"] == "fleet.sessions"
            )
            assert total == 4, policy


class TestChunkedAdmission:
    def test_chunked_pass_equals_admit_all(self):
        arrivals = _table([0, 1, 2, 5, 9, 14])
        whole = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        ).admit_all(arrivals, _horizon(4))

        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        manager.start()
        made = []
        for lo in range(0, len(arrivals), 2):
            made += manager.admit_chunk(arrivals[lo:lo + 2], _horizon(4))
        made += manager.finalize(_horizon(4))
        by_id = {d.session_id: d for d in made}
        assert [by_id[s.session_id] for s in arrivals] == list(whole)

    def test_policy_may_move_between_chunks(self):
        manager = SessionManager(
            CapacityModel(source_fanout=3.0, backbone=1000.0),
            policy="queue", max_queue_slots=64,
        )
        manager.start()
        first = manager.admit_chunk(_table([0]), _horizon(50))
        assert first[0].status == "admitted"
        # The control plane escalates queue -> reject mid-run.
        manager.policy = "reject"
        late = _table([0, 1])[1:]
        second = manager.admit_chunk(late, _horizon(50))
        assert second[0].session_id == 1
        assert second[0].status == "rejected"
        assert second[0].reason == "capacity"
        manager.finalize(_horizon(50))

    def test_chunk_before_start_raises(self):
        manager = SessionManager(CapacityModel())
        with pytest.raises(ReproError):
            manager.admit_chunk(_table([0]), _horizon())
        with pytest.raises(ReproError):
            manager.finalize(_horizon())

    def test_unsorted_arrivals_rejected(self):
        manager = SessionManager(CapacityModel())
        with pytest.raises(ReproError):
            manager.admit_all(_table([5, 2]), _horizon())

    def test_chunk_behind_the_last_slot_rejected(self):
        manager = SessionManager(CapacityModel(source_fanout=1e9, backbone=1e9))
        manager.start()
        manager.admit_chunk(_table([4, 6]), _horizon())
        with pytest.raises(ReproError, match="sorted"):
            manager.admit_chunk(_table([0, 3, 5])[2:], _horizon())

    def test_unknown_policy(self):
        with pytest.raises(ReproError):
            SessionManager(CapacityModel(), policy="drop")


# ---------------------------------------------------------------------------
# The columnar manager against the object loop it replaced
# ---------------------------------------------------------------------------


class _ListSink(EventSink):
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append((event.name, event.slot, event.fields))


def _kind_pool():
    base = SessionSpec(num_nodes=15, degree=3, num_packets=6)
    return (
        base,
        SessionSpec(num_nodes=15, degree=3, num_packets=6, label="twin", weight=0.5),
        SessionSpec(num_nodes=31, degree=2, num_packets=6),
        SessionSpec(num_nodes=12, degree=4, num_packets=6, weight=2.0),
        SessionSpec(scheme="chain", num_nodes=9, degree=1, num_packets=6),
        SessionSpec(num_nodes=19, degree=3, num_packets=6, repair_epsilon=0.05),
        SessionSpec(num_nodes=23, degree=2, num_packets=6, repair_epsilon=0.15),
        SessionSpec(scheme="hypercube", num_nodes=16, degree=3, num_packets=6,
                    repair_epsilon=0.1),
    )


def _horizon_model(spec, degree):
    """A deterministic stand-in for the compiled horizon of a configuration."""
    return 2 + spec.num_nodes % 9 + 2 * degree


@st.composite
def _scenarios(draw):
    pool = _kind_pool()
    kinds = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))
    arrival = draw(st.sampled_from(("poisson", "uniform", "trace")))
    count = draw(st.integers(min_value=1, max_value=60))
    trace = ()
    if arrival == "trace":
        gaps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
        trace = tuple(np.cumsum(gaps).tolist())
    fleet = FleetSpec(
        sessions=kinds, num_sessions=count, arrival=arrival,
        arrival_rate=draw(st.sampled_from((0.5, 2.0, 6.0))),
        horizon=draw(st.sampled_from((None, 3, 20))) if arrival == "uniform" else None,
        arrival_slots=trace,
        seed=draw(st.integers(0, 2**16)),
        churn_rate=draw(st.sampled_from((0.0, 0.3, 0.8))),
    )
    table = fleet.resolve()
    cuts = sorted(draw(st.sets(st.integers(1, count), max_size=3)) | {count})
    chunks = [table[lo:hi] for lo, hi in zip([0, *cuts], cuts)]
    # Budgets from never binding to always binding; "at" puts a budget at
    # the first chunk's summed cost, minus fits()' own 1e-9 tolerance, so
    # the running float sums decide the last admission.
    first = list(chunks[0])
    budgets = []
    for cost in (lambda s: s.spec.fanout_cost(), lambda s: s.spec.backbone_cost()):
        mode = draw(st.sampled_from(("never", "tight", "at", "at")))
        if mode == "never":
            budgets.append(1e9)
        elif mode == "tight":
            budgets.append(draw(st.floats(min_value=1.0, max_value=300.0)))
        else:
            total = sum(cost(s) for s in first)
            budgets.append(draw(st.sampled_from((
                total, total - 1e-9, math.fsum(cost(s) for s in first) - 1e-9,
            ))))
    return {
        "chunks": chunks,
        "capacity": CapacityModel(source_fanout=budgets[0], backbone=budgets[1]),
        "policies": [draw(st.sampled_from(("reject", "queue", "degrade"))) for _ in chunks],
        "max_queue_slots": draw(st.integers(0, 12)),
        "min_degree": draw(st.sampled_from((2, 3))),
    }


def _scenario(kinds, kind, slots, fanout_budget, policy="reject"):
    """One chunk of sessions with no churn, against a fan-out budget."""
    count = len(kind)
    return {
        "chunks": [SessionTable(
            kinds, range(count), kind, slots, range(count), [math.nan] * count
        )],
        "capacity": CapacityModel(source_fanout=fanout_budget, backbone=1e9),
        "policies": [policy], "max_queue_slots": 0, "min_degree": 2,
    }


_PLAIN = SessionSpec(num_nodes=15, degree=3, num_packets=6)
_SLACK = SessionSpec(scheme="hypercube", num_nodes=16, degree=3, num_packets=6,
                     repair_epsilon=0.1)
_MIX = [1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0]

#: The second session arrives at the first one's end slot, so the loop
#: releases the first before admitting the second.
_RELEASE_AT_END = _scenario((_PLAIN,), [0, 0], [0, _horizon_model(_PLAIN, 3)], 1e9)
#: Twenty sessions at one slot against a budget 1e-9 below their exact
#: summed cost: the exact sum plus fits()' tolerance admits all twenty,
#: but the loop's running float sum ends one ulp higher and rejects the
#: last, so the unbound check needs its rounding margin.
_ROUNDING_AT_BUDGET = _scenario(
    (_PLAIN, _SLACK), _MIX, [0] * len(_MIX),
    math.fsum((_PLAIN, _SLACK)[k].fanout_cost() for k in _MIX) - 1e-9,
)


def _run_reference(scenario):
    sink = _ListSink()
    registry = MetricsRegistry()
    manager = ReferenceSessionManager(
        scenario["capacity"], max_queue_slots=scenario["max_queue_slots"],
        min_degree=scenario["min_degree"], tracer=EventTracer(sink),
    )

    def duration_of(session, degree):
        horizon = _horizon_model(session.spec, degree)
        if session.leave_fraction is not None:
            horizon = max(1, int(session.leave_fraction * horizon))
        return horizon

    made = []
    with use_registry(registry):
        manager.start()
        for chunk, policy in zip(scenario["chunks"], scenario["policies"]):
            manager.policy = policy
            made.append(manager.admit_chunk(list(chunk), duration_of))
        made.append(manager.finalize(duration_of))
    return made, (manager.peak_fanout, manager.peak_backbone), sink.events, registry


def _run_columnar(scenario):
    sink = _ListSink()
    registry = MetricsRegistry()
    manager = SessionManager(
        scenario["capacity"], max_queue_slots=scenario["max_queue_slots"],
        min_degree=scenario["min_degree"], tracer=EventTracer(sink),
    )
    made = []
    with use_registry(registry):
        manager.start()
        for chunk, policy in zip(scenario["chunks"], scenario["policies"]):
            manager.policy = policy
            made.append(list(manager.admit_chunk(chunk, _horizon_model)))
        made.append(list(manager.finalize(_horizon_model)))
    return made, (manager.peak_fanout, manager.peak_backbone), sink.events, registry


def _instruments(registry):
    snapshot = registry.snapshot()
    return {
        kind: sorted(
            (row["name"], sorted(row["labels"].items()), row["value"])
            for row in snapshot[kind]
        )
        for kind in ("counters", "gauges")
    }


class TestColumnarAdmissionEqualsTheObjectLoop:
    """Decisions, exact-float peaks, ``session_*`` events and registry
    instruments all equal the object ``SessionManager`` kept in
    ``tests/admission_oracle.py``, chunk by chunk."""

    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_scenarios())
    @example(_RELEASE_AT_END)
    @example(_ROUNDING_AT_BUDGET)
    def test_equal_to_reference(self, scenario):
        calls = []
        original = SessionManager._admit_unbound

        def counted(self, *args):
            calls.append(1)
            return original(self, *args)

        SessionManager._admit_unbound = counted
        try:
            made, peaks, events, registry = _run_columnar(scenario)
        finally:
            SessionManager._admit_unbound = original
        event("unbound chunks: " + ("some" if calls else "none"))
        ref_made, ref_peaks, ref_events, ref_registry = _run_reference(scenario)
        assert made == ref_made
        assert peaks == ref_peaks  # exact floats, not approximately
        assert events == ref_events
        assert _instruments(registry) == _instruments(ref_registry)
        # Plain Python scalars, as JSON sinks and row reprs need.
        assert {type(v) for _, slot, fields in events for v in (slot, *fields.values())} <= {int, str}
        assert {type(v) for rows in made for row in rows for v in astuple(row)} <= {int, str}

    def test_unbound_chunk_takes_the_array_path(self, monkeypatch):
        calls = []
        original = SessionManager._admit_unbound
        monkeypatch.setattr(
            SessionManager, "_admit_unbound",
            lambda self, *args: calls.append(1) or original(self, *args),
        )
        fleet = FleetSpec(
            sessions=_kind_pool(), num_sessions=200, churn_rate=0.3, seed=3,
            capacity=CapacityModel(source_fanout=1e9, backbone=1e9),
        )
        table = fleet.resolve()
        chunks = [table[:70], table[70:150], table[150:]]
        scenario = {
            "chunks": chunks, "capacity": fleet.capacity,
            "policies": ["queue"] * 3, "max_queue_slots": 8, "min_degree": 2,
        }
        made, peaks, events, registry = _run_columnar(scenario)
        assert len(calls) == 3
        ref_made, ref_peaks, ref_events, ref_registry = _run_reference(scenario)
        assert (made, peaks, events) == (ref_made, ref_peaks, ref_events)
        assert _instruments(registry) == _instruments(ref_registry)

    def test_binding_chunk_runs_the_loop(self, monkeypatch):
        def forbidden(self, *args):
            raise AssertionError("a chunk that can bind took the array path")

        monkeypatch.setattr(SessionManager, "_admit_unbound", forbidden)
        table = _table([0, 0, 1])
        manager = SessionManager(CapacityModel(source_fanout=8.0, backbone=1000.0))
        statuses = [d.status for d in manager.admit_all(table, _horizon())]
        assert statuses == ["admitted", "admitted", "admitted"]
        assert manager.peak_fanout == 6.0
