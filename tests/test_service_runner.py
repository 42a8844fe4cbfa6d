"""Fleet runner: sharded execution, cache amortization, facade + export."""

from __future__ import annotations

import copy
import json
import math
import multiprocessing
import os
import re
import signal
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.abr.qoe import qoe_from_slot_log
from repro.cli import main
from repro.core.errors import ReproError
from repro.exec.executor import ExecutorPolicy, SweepExecutor
from repro.experiments import ExperimentSpec, run
from repro.obs.registry import MetricsRegistry
from repro.reporting.export import (
    fleet_report_to_dict,
    read_fleet_report_json,
    write_fleet_report_json,
)
from repro.service import (
    CapacityModel,
    FleetRunner,
    FleetSLOReport,
    FleetSpec,
    FleetTelemetry,
    SessionSpec,
)
from repro.service import runner as runner_module
from repro.service.runner import fleet_unit_task

SERIAL = ExecutorPolicy(mode="serial")
#: A premium ABR session's QoE dict, as a fleet report row carries it.
QOE = qoe_from_slot_log(["startup", "play", "play"], [0.0, 4.0, 4.0]).to_dict()

#: The process that runs the tests, and the marker file whose exclusive
#: creation lets exactly one pool worker kill itself (set per test).
TEST_PID = os.getpid()
DEATH_MARKER: str | None = None


def dying_unit_task(unit: tuple) -> tuple:
    """``fleet_unit_task``, but the first call in a pool worker SIGKILLs
    that worker (the one that creates the marker file)."""
    if os.getpid() != TEST_PID and DEATH_MARKER is not None:
        try:
            os.close(os.open(DEATH_MARKER, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return fleet_unit_task(unit)


def _small_fleet(**overrides) -> FleetSpec:
    defaults = dict(
        sessions=(
            SessionSpec(num_nodes=15, degree=3, num_packets=6, weight=2.0),
            SessionSpec(scheme="chain", num_nodes=8, num_packets=6),
        ),
        num_sessions=30,
        capacity=CapacityModel(source_fanout=1e6, backbone=1e6),
        seed=7,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestFleetRunner:
    def test_serial_run_shape(self):
        runner = FleetRunner(policy=SERIAL)
        result = runner.run(_small_fleet())
        report = result.report
        assert report.num_sessions == 30
        assert report.rejected == 0
        assert len(report.sessions) == report.admitted + report.degraded == 30
        assert len(result.decisions) == 30
        assert len(result.sessions) == 30
        assert result.executor_info["mode"] == "serial"
        ids = [slo.session_id for slo in report.sessions]
        assert ids == sorted(ids)

    def test_parallel_matches_serial_exactly(self):
        fleet = _small_fleet()
        serial = FleetRunner(policy=SERIAL).run(fleet).report
        parallel = FleetRunner(
            policy=ExecutorPolicy(max_workers=2, mode="parallel")
        ).run(fleet).report
        assert parallel == serial

    def test_one_cache_lookup_per_admitted_session(self):
        runner = FleetRunner(policy=SERIAL)
        report = runner.run(_small_fleet()).report
        # Two distinct configurations in the mix -> two compiles, the other
        # 28 admissions hit the shared cache.
        assert report.cache_misses == 2
        assert report.cache_hits == 28
        assert report.cache_hit_rate == pytest.approx(28 / 30)

    def test_shared_cache_amortizes_across_runs(self):
        runner = FleetRunner(policy=SERIAL)
        fleet = _small_fleet()
        runner.run(fleet)
        second = runner.run(fleet).report
        assert second.cache_misses == 0
        assert second.cache_hit_rate == 1.0

    def test_churned_sessions_score_truncated_prefix(self):
        fleet = _small_fleet(churn_rate=0.8, num_sessions=40)
        result = FleetRunner(policy=SERIAL).run(fleet)
        by_id = {slo.session_id: slo for slo in result.report.sessions}
        leavers = [s for s in result.sessions if s.leave_fraction is not None]
        assert leavers
        truncated = [by_id[s.session_id] for s in leavers if s.session_id in by_id]
        assert any(slo.num_packets < 6 for slo in truncated)
        assert all(slo.num_packets >= 1 for slo in truncated)
        stayers = [
            by_id[s.session_id]
            for s in result.sessions
            if s.leave_fraction is None and s.session_id in by_id
        ]
        assert all(slo.num_packets == 6 for slo in stayers)

    def test_queue_drained_at_finalize_runs_in_the_same_window(self):
        # One fan-out slot: the second arrival waits for the first to
        # depart, and with no later arrival only finalize() admits it.
        fleet = _small_fleet(
            sessions=(SessionSpec(num_nodes=15, degree=3, num_packets=6),),
            capacity=CapacityModel(source_fanout=3.0, backbone=1e6),
            policy="queue",
            arrival="trace",
            arrival_slots=(0, 0),
            num_sessions=2,
        )
        result = FleetRunner(policy=SERIAL).run(fleet)
        assert result.report.admitted == 2
        assert result.report.queued == 1
        assert [d.session_id for d in result.decisions] == [0, 1]
        # Both sessions share one group key, so one window means one unit.
        assert result.executor_info["units"] == 1

    def test_capacity_pressure_rejects(self):
        fleet = _small_fleet(
            sessions=(SessionSpec(num_nodes=15, degree=3, num_packets=6),),
            capacity=CapacityModel(source_fanout=3.0, backbone=1e6),
            policy="reject",
            arrival="trace",
            arrival_slots=(0, 0, 0),
            num_sessions=3,
        )
        report = FleetRunner(policy=SERIAL).run(fleet).report
        assert report.admitted == 1
        assert report.rejected == 2
        assert report.reject_rate == pytest.approx(2 / 3)


def _instruments(snapshot, kind):
    """``{(name, labels): row}`` for one instrument kind of a snapshot."""
    return {
        (row["name"], tuple(sorted(row["labels"].items()))): row
        for row in snapshot[kind]
    }


def assert_registries_agree(a, b):
    """Equal counters and gauges; equal histogram buckets, count, min and
    max; histogram sums equal up to summation order."""
    for kind in ("counters", "gauges"):
        assert _instruments(a, kind) == _instruments(b, kind), kind
    left, right = _instruments(a, "histograms"), _instruments(b, "histograms")
    assert left.keys() == right.keys()
    for key, row in left.items():
        other = right[key]
        for field in ("buckets", "bucket_counts", "count", "min", "max"):
            assert row[field] == other[field], (key, field)
        assert math.isclose(row["sum"], other["sum"]), key


class TestOneAggregation:
    """The report is the one fold of per-session outcomes; a serial run
    writes into one registry."""

    FLEET = _small_fleet(
        sessions=(
            SessionSpec(num_nodes=15, degree=3, num_packets=6, drop_rate=0.05, weight=2.0),
            SessionSpec(scheme="chain", num_nodes=8, num_packets=6, drop_rate=0.02),
            SessionSpec(num_nodes=15, num_packets=6, drop_rate=0.05, abr_profile="onoff"),
        ),
        num_sessions=80,
        churn_rate=0.3,
        policy="queue",
        capacity=CapacityModel(source_fanout=12.0, backbone=1e6),
    )

    def _run(self, policy, fleet=FLEET):
        registry = MetricsRegistry()
        result = FleetRunner(policy=policy, registry=registry).run(fleet)
        return result, registry.snapshot()

    def test_serial_and_parallel_registries_agree(self):
        serial, serial_snapshot = self._run(SERIAL)
        parallel, parallel_snapshot = self._run(
            ExecutorPolicy(mode="parallel", max_workers=2)
        )
        assert parallel.executor_info["mode"] == "parallel"
        assert serial.report.queued and serial.report.rejected  # the queue binds
        assert parallel.report == serial.report
        assert_registries_agree(serial_snapshot, parallel_snapshot)

    def test_units_write_no_fleet_histograms(self):
        result, snapshot = self._run(SERIAL)
        histograms = {row["name"] for row in snapshot["histograms"]}
        assert "fleet.startup_delay" not in histograms
        assert "fleet.rebuffer_ratio" not in histograms
        replayed = [
            row for row in snapshot["counters"]
            if row["name"] == "fleet.sessions_replayed"
        ]
        labels = {row["labels"]["label"]: row["value"] for row in replayed}
        assert sum(labels.values()) == result.executor_info["tasks"]
        assert labels == dict(Counter(slo.label for slo in result.report.sessions))
        tiers = {
            row["labels"]["tier"]: row["value"]
            for row in snapshot["counters"] if row["name"] == "fleet.abr_sessions"
        }
        assert tiers and tiers == dict(result.report.qoe_tiers)

    def test_early_stop_counts_executed_sessions_only(self):
        from repro.obs.convergence import ConvergenceCriterion

        fleet = _small_fleet(
            num_sessions=400,
            aggregation="sketch",
            convergence=ConvergenceCriterion(
                quantile=99.0, rel_half_width=0.2, min_count=32, check_every=32
            ),
        )
        result, snapshot = self._run(SERIAL, fleet)
        assert result.executor_info["tasks"] < 400
        replayed = sum(
            row["value"] for row in snapshot["counters"]
            if row["name"] == "fleet.sessions_replayed"
        )
        assert replayed == result.executor_info["tasks"]

    def test_serial_run_never_snapshots_or_merges(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a serial fleet run snapshotted or merged a registry")

        monkeypatch.setattr(MetricsRegistry, "snapshot", forbidden)
        monkeypatch.setattr(MetricsRegistry, "merge", forbidden)
        registry = MetricsRegistry()
        result = FleetRunner(policy=SERIAL, registry=registry).run(self.FLEET)
        assert result.executor_info["units"] > 1
        assert result.report.qoe_tiers
        for tier, count in result.report.qoe_tiers:
            assert registry.counter("fleet.abr_sessions", tier=tier).value == count

    def test_serial_run_ignores_the_host_core_count(self, monkeypatch):
        plain = FleetRunner(policy=SERIAL).run(self.FLEET)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        many_cores = FleetRunner(policy=SERIAL).run(self.FLEET)
        assert many_cores.report == plain.report
        assert many_cores.executor_info["units"] == plain.executor_info["units"]


class TestColumnarFrontEnd:
    """Resolve, admission and grouping carry the fleet as columns."""

    BULK = _small_fleet(
        sessions=(
            SessionSpec(num_nodes=15, degree=3, num_packets=6, drop_rate=0.01),
            SessionSpec(num_nodes=15, degree=3, num_packets=6, drop_rate=0.01,
                        label="twin", weight=0.5),
            SessionSpec(scheme="hypercube", num_nodes=16, num_packets=6, drop_rate=0.01),
            SessionSpec(scheme="chain", num_nodes=8, num_packets=6, drop_rate=0.01),
        ),
        num_sessions=600,
        arrival_rate=16.0,
        aggregation="sketch",
        capacity=CapacityModel(source_fanout=1e9, backbone=1e9),
    )

    def test_bulk_run_builds_no_per_session_object(self, monkeypatch):
        import repro.service.runner as runner_module
        from repro.service.admission import AdmissionDecision
        from repro.service.spec import ResolvedSession

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"a bulk run built a {type(self).__name__}")

        monkeypatch.setattr(ResolvedSession, "__init__", forbidden)
        monkeypatch.setattr(AdmissionDecision, "__init__", forbidden)
        units = []
        original = runner_module.fleet_unit_task

        def spy(unit):
            units.append(unit)
            return original(unit)

        monkeypatch.setattr(runner_module, "fleet_unit_task", spy)
        registry = MetricsRegistry()
        result = FleetRunner(policy=SERIAL, registry=registry).run(self.BULK)
        assert result.report.admitted == 600
        assert sum(len(members[0]) for _, members in units) == 600
        for _, members in units:
            seeds, rates, packets, horizons, waits, profiles = members
            assert profiles is None
            for column in (seeds, rates, packets, horizons, waits):
                assert isinstance(column, np.ndarray) and len(column) == len(seeds)
            assert seeds.dtype == np.int64 and rates.dtype == np.float64
            assert rates.tolist() == [0.01] * len(seeds)
            assert packets.tolist() == [6] * len(seeds)
        # The twin kind shares its configuration's one compile and unit:
        # one unit per schedule token, and its sessions keep their label.
        assert result.report.cache_misses == 3
        assert len(units) == 3
        replayed = {
            row["labels"]["label"]: row["value"]
            for row in registry.snapshot()["counters"]
            if row["name"] == "fleet.sessions_replayed"
        }
        assert len(replayed) == 4 and sum(replayed.values()) == 600
        assert replayed["twin"] > 0

    def test_units_ship_only_replay_columns(self, monkeypatch):
        # No label, status, session id or task index crosses the unit
        # boundary: every member is a NumPy column but the ABR list.
        import pickle

        fleet = _small_fleet(
            sessions=(
                SessionSpec(num_nodes=15, degree=4, num_packets=6, drop_rate=0.05),
                SessionSpec(num_nodes=15, degree=4, num_packets=6, abr_profile="onoff"),
                SessionSpec(scheme="chain", num_nodes=8, num_packets=6, label="plain"),
            ),
            num_sessions=80, arrival_rate=0.1, churn_rate=0.3, policy="degrade",
            capacity=CapacityModel(source_fanout=10.0, backbone=1e6),
        )
        emitted = []
        original = runner_module._Tasks.units

        def spy(self, lo, hi, workers):
            units, blocks = original(self, lo, hi, workers)
            emitted.extend(units)
            return units, blocks

        monkeypatch.setattr(runner_module._Tasks, "units", spy)
        result = FleetRunner(policy=SERIAL).run(fleet)
        statuses = {slo.status for slo in result.report.sessions}
        labels = {slo.label for slo in result.report.sessions}
        assert statuses == {"admitted", "degraded"} and len(labels) == 3
        assert any(members[-1] is not None for _, members in emitted)
        for token, members in emitted:
            *columns, profiles = members
            assert len(columns) == 5
            assert all(isinstance(column, np.ndarray) for column in columns), members
            assert profiles is None or isinstance(profiles, list)
            shipped = pickle.dumps((token, members))
            for text in (*labels, *statuses):
                assert text.encode() not in shipped, text

    def test_result_tables(self):
        from repro.service import DecisionTable, SessionTable

        fleet = _small_fleet(
            churn_rate=0.3, policy="queue", num_sessions=60,
            capacity=CapacityModel(source_fanout=12.0, backbone=1e6),
        )
        result = FleetRunner(policy=SERIAL).run(fleet)
        assert isinstance(result.sessions, SessionTable)
        assert result.sessions == fleet.resolve()
        assert isinstance(result.decisions, DecisionTable)
        assert result.decisions.session_id.tolist() == list(range(60))
        report = result.report
        statuses = [d.status for d in result.decisions]
        assert statuses.count("rejected") == report.rejected > 0
        assert statuses.count("admitted") == report.admitted

    @pytest.mark.parametrize(
        ("name", "entered", "queued", "timeouts"),
        [("static", 1057, 329, 728), ("ramp", 965, 959, 6)],
    )
    def test_queue_entries_end_admitted_late_or_timed_out(
        self, name, entered, queued, timeouts
    ):
        # report.queued counts admitted sessions that waited; a queued
        # session that timed out is only a reject.
        from repro.control.scenario import ramp_fleet
        from repro.service.admission import REASONS

        fleet = {
            "static": _small_fleet(
                num_sessions=2000, churn_rate=0.3, policy="queue",
                max_queue_slots=16, arrival_rate=16.0,
                capacity=CapacityModel(source_fanout=40.0, backbone=1e6),
            ),
            "ramp": ramp_fleet("adaptive", scale=10, seed=21),
        }[name]
        registry = MetricsRegistry()
        result = FleetRunner(policy=SERIAL, registry=registry).run(fleet)
        timed_out = int(np.count_nonzero(
            result.decisions.reason == REASONS.index("queue_timeout")
        ))
        counted = registry.counter("fleet.queue.entered").value
        assert (counted, result.report.queued, timed_out) == (entered, queued, timeouts)
        assert counted == result.report.queued + timed_out


class TestUnitErrors:
    """A unit's own failure is a ReproError that names the unit: the task
    names its token prefix and size, the runner its session-id range."""

    TOKEN = "0123456789abcdef" * 4
    UNIT = (TOKEN, (
        np.array([5, 6]), np.array([0.05, 0.05]),
        np.array([6, 6]), np.array([20, 20]), np.array([0, 2]), None,
    ))

    @pytest.mark.parametrize(
        ("policy", "blocks"),
        [(SERIAL, 1), (ExecutorPolicy(mode="parallel", max_workers=2), 2)],
        ids=["serial", "parallel"],
    )
    def test_missing_token_names_the_unit(self, monkeypatch, policy, blocks):
        # The chain schedule never reaches the payload, so its units' lookup
        # fails (in a pool worker, too) after the multi-tree units folded:
        # the failing unit is the chain token's first block of tasks.
        compile_into = FleetRunner._compile

        def unshipped(self, spec, degree, schedules):
            return compile_into(self, spec, degree, {} if spec.scheme == "chain" else schedules)

        monkeypatch.setattr(FleetRunner, "_compile", unshipped)
        registry = MetricsRegistry()
        fleet = _small_fleet()
        resolved = fleet.resolve()
        chain = [s.session_id for s in resolved if s.spec.scheme == "chain"]
        assert resolved[0].spec.scheme != "chain"  # multi-tree units come first
        first = chain[:-(-len(chain) // blocks)]
        with pytest.raises(ReproError) as info:
            FleetRunner(policy=policy, registry=registry).run(fleet)
        message = str(info.value)
        assert f"session ids {first[0]}..{first[-1]}: fleet unit " in message
        assert f"({len(first)} sessions) failed: KeyError" in message
        token = message.split("fleet unit ", 1)[1][:12]
        assert message.count(token) == 2  # the prefix, then the whole key
        names = {row["name"] for row in registry.snapshot()["counters"]}
        assert "executor.fallbacks" not in names

    def test_cause_is_chained(self):
        # The task alone names its token prefix and size.
        executor = SweepExecutor(SERIAL)
        with pytest.raises(ReproError) as info:
            executor.map(fleet_unit_task, [self.UNIT], payload={})
        message = str(info.value)
        assert message.startswith("fleet unit 0123456789ab (2 sessions) failed: KeyError")
        assert isinstance(info.value.__cause__, KeyError)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched unit task reaches the workers only when they fork",
)
class TestWorkerDeath:
    """A pool worker that dies mid-run ends in the serial fallback and the
    serial run's report, never in a partial one."""

    def test_killed_worker_falls_back_to_an_identical_report(self, tmp_path, monkeypatch):
        fleet = _small_fleet(num_sessions=40)
        serial = FleetRunner(policy=SERIAL).run(fleet)
        monkeypatch.setattr(sys.modules[__name__], "DEATH_MARKER", str(tmp_path / "died"))
        monkeypatch.setattr(runner_module, "fleet_unit_task", dying_unit_task)
        registry = MetricsRegistry()
        result = FleetRunner(
            policy=ExecutorPolicy(max_workers=2, mode="parallel"), registry=registry
        ).run(fleet)
        assert (tmp_path / "died").exists()  # a worker did die
        assert result.executor_info["fallback"] is True
        assert "BrokenProcessPool" in result.executor_info["fallback_error"]
        assert registry.counter("executor.fallbacks").value == 1
        assert fleet_report_to_dict(result.report) == fleet_report_to_dict(serial.report)


class TestSketchAggregation:
    def test_sketch_report_close_to_exact(self):
        # Percentiles are exact in both modes (sketch_error is accepted but
        # inert), so the reports differ only in the per-session rows.
        fleet = _small_fleet(num_sessions=60)
        exact = FleetRunner(policy=SERIAL).run(fleet).report
        sketch = FleetRunner(policy=SERIAL).run(
            _small_fleet(num_sessions=60, aggregation="sketch", sketch_error=0.01)
        ).report
        assert len(sketch.sessions) == 0  # nothing per-session materialized
        assert len(exact.sessions) == 60
        # A zero-row slice keeps exact's labels and flat histograms, but
        # tables compare row contents.
        assert sketch == replace(exact, sessions=exact.sessions[:0])

    def test_sketch_report_round_trips(self, tmp_path):
        report = FleetRunner(policy=SERIAL).run(
            _small_fleet(aggregation="sketch")
        ).report
        path = tmp_path / "fleet.json"
        write_fleet_report_json(report, path)
        assert read_fleet_report_json(path) == report


class TestRunUntilConverged:
    def test_stops_early_and_reports_prefix(self):
        from repro.obs.convergence import ConvergenceCriterion

        fleet = _small_fleet(
            num_sessions=400,
            aggregation="sketch",
            convergence=ConvergenceCriterion(
                quantile=99.0, rel_half_width=0.2, min_count=32, check_every=32
            ),
        )
        result = FleetRunner(policy=SERIAL).run(fleet)
        state = result.convergence
        assert state is not None and state.converged
        executed = result.executor_info["tasks"]
        assert executed < 400
        assert result.executor_info["batches"] >= 1
        # Decisions (and the report) cover exactly the executed prefix.
        assert result.report.num_sessions == len(result.decisions)
        assert result.report.num_sessions >= executed

    def test_non_converged_run_has_no_state(self):
        result = FleetRunner(policy=SERIAL).run(_small_fleet())
        assert result.convergence is None


class TestControlEpochTable:
    def test_epoch_p99_reads_the_previous_epochs_sessions(self, monkeypatch):
        # The control hook's table is the aggregator's startup table minus
        # its copy at the epoch's start: the sessions the epoch executed.
        import repro.service.runner as runner_module
        from repro.control.scenario import ramp_fleet
        from repro.obs.quantiles import pooled_percentile

        executed: list[list[int]] = [[]]
        original_task = runner_module.fleet_unit_task
        original_close = runner_module._ControlHook.close

        def spy_task(unit):
            scored = original_task(unit)
            executed[-1].extend(scored.startup_delay.tolist())
            return scored

        def spy_close(self, chunk, made, delays):
            assert delays == Counter(executed[-1])
            executed.append([])
            original_close(self, chunk, made, delays)

        monkeypatch.setattr(runner_module, "fleet_unit_task", spy_task)
        monkeypatch.setattr(runner_module._ControlHook, "close", spy_close)
        result = FleetRunner(policy=SERIAL).run(ramp_fleet("adaptive", scale=1, seed=3))
        rows = [row for row in result.control_epochs if row["arrivals"]]
        assert len(rows) > 2 and rows[0]["observed_p99"] is None
        for row, previous in zip(rows[1:], executed):
            assert previous
            assert row["observed_p99"] == float(pooled_percentile(Counter(previous), 99))


class TestReplaySpans:
    def test_replay_spans_cover_every_admitted_session(self):
        telemetry = FleetTelemetry()
        result = FleetRunner(policy=SERIAL, telemetry=telemetry).run(_small_fleet())
        replays = [s for s in telemetry.spans.finished if s.name == "session.replay"]
        assert result.executor_info["units"] == len(replays)
        assert sum(s.attrs["sessions"] for s in replays) == 30
        assert all(s.dur_s >= 0 for s in replays)

    def test_result_records_no_wall_time(self):
        result = run(
            ExperimentSpec(kind="fleet", fleet=_small_fleet(), executor=SERIAL)
        )
        assert not hasattr(result, "shard_timings")
        assert "shard_timings" not in result.artifacts


class TestFleetTelemetry:
    def test_series_and_spans_recorded(self):
        from repro.service import FleetTelemetry

        telemetry = FleetTelemetry(window=4)
        result = FleetRunner(policy=SERIAL, telemetry=telemetry).run(_small_fleet())
        assert result.telemetry is telemetry
        assert telemetry.series.total("fleet.sessions_completed") == 30
        admitted = telemetry.series.total("fleet.admitted")
        degraded = telemetry.series.total("fleet.degraded")
        assert admitted + degraded == 30
        names = {span.name for span in telemetry.spans.finished}
        assert {"fleet.resolve", "fleet.admit", "fleet.execute",
                "fleet.aggregate"} <= names
        assert "session.replay" in names  # worker spans adopted
        payload = telemetry.to_dict()
        assert payload["trace_id"] == telemetry.spans.trace_id
        assert len(payload["spans"]) == len(telemetry.spans.finished)

    def test_empty_tables_record_nothing(self, monkeypatch):
        import repro.service.runner as runner_module
        from repro.service import FleetTelemetry

        scored = []
        original = runner_module.fleet_unit_task

        def spy(unit):
            scored.append(original(unit))
            return scored[-1]

        monkeypatch.setattr(runner_module, "fleet_unit_task", spy)
        telemetry = FleetTelemetry(window=4, trace=False)
        result = FleetRunner(policy=SERIAL, telemetry=telemetry).run(_small_fleet())
        before = telemetry.to_dict()
        columns = scored[0]
        empty = replace(columns, **{
            name: getattr(columns, name)[:0]
            for name in ("startup_delay", "rebuffer_ratio", "goodput")
        })
        telemetry.record_decisions(result.decisions[0:0])
        telemetry.record_sessions(empty, np.zeros(0, dtype=np.int64))
        assert telemetry.to_dict() == before

    def test_trace_off_keeps_series(self):
        from repro.service import FleetTelemetry

        telemetry = FleetTelemetry(window=8, trace=False)
        FleetRunner(policy=SERIAL, telemetry=telemetry).run(_small_fleet())
        assert telemetry.spans is None
        assert telemetry.rows()
        assert "spans" not in telemetry.to_dict()

    def test_parallel_matches_serial_with_telemetry_series(self):
        from repro.service import FleetTelemetry

        fleet = _small_fleet()
        serial_t = FleetTelemetry(window=4, trace=False)
        parallel_t = FleetTelemetry(window=4, trace=False)
        serial = FleetRunner(policy=SERIAL, telemetry=serial_t).run(fleet).report
        parallel = FleetRunner(
            policy=ExecutorPolicy(max_workers=2, mode="parallel"),
            telemetry=parallel_t,
        ).run(fleet).report
        assert parallel == serial
        assert parallel_t.series.to_dict() == serial_t.series.to_dict()

    def test_parallel_matches_serial_on_churned_shared_tokens(self):
        # Churned horizons and a loss-free twin of the lossy kind put
        # several replay coordinates in one token's unit; two workers cut
        # each token's tasks into two blocks, and the order-free fold
        # gives the serial report and telemetry.
        from repro.service import FleetTelemetry

        fleet = _small_fleet(
            sessions=(
                SessionSpec(num_nodes=15, degree=3, num_packets=6, drop_rate=0.1),
                SessionSpec(num_nodes=15, degree=3, num_packets=6, label="twin"),
                SessionSpec(scheme="chain", num_nodes=8, num_packets=6, drop_rate=0.05),
            ),
            num_sessions=120,
            churn_rate=0.5,
        )
        runs = []
        for policy in (SERIAL, ExecutorPolicy(max_workers=2, mode="parallel")):
            telemetry = FleetTelemetry(window=4, trace=False)
            result = FleetRunner(policy=policy, telemetry=telemetry).run(fleet)
            runs.append((result, repr(telemetry.to_dict())))
        (serial, serial_t), (parallel, parallel_t) = runs
        assert parallel.executor_info["mode"] == "parallel"
        assert serial.executor_info["units"] == 2  # one per schedule token
        assert parallel.executor_info["units"] <= 4
        assert parallel.report == serial.report
        assert parallel_t == serial_t


class TestFoldOrder:
    """Each unit folds as it arrives, and any order gives one result."""

    def test_reversed_units_fold_to_the_same_report(self, monkeypatch):
        import repro.service.runner as runner_module

        original = runner_module._Tasks.units

        def backwards(self, lo, hi, workers):
            # The units in reverse order, each with its rows reversed.
            units, blocks = original(self, lo, hi, workers)
            return (
                [
                    (token, tuple(None if column is None else column[::-1] for column in members))
                    for token, members in reversed(units)
                ],
                [rows[::-1] for rows in reversed(blocks)],
            )

        fleet = replace(TestOneAggregation.FLEET, sessions=(
            *TestOneAggregation.FLEET.sessions,
            SessionSpec(num_nodes=15, degree=3, num_packets=6, label="twin"),
        ))
        runs = []
        for order in (None, backwards):
            if order is not None:
                monkeypatch.setattr(runner_module._Tasks, "units", order)
            telemetry = FleetTelemetry(window=4, trace=False)
            result = FleetRunner(policy=SERIAL, telemetry=telemetry).run(fleet)
            runs.append((result, repr(telemetry.to_dict())))
        (forward, forward_t), (reverse, reverse_t) = runs
        assert forward.executor_info["units"] == reverse.executor_info["units"] > 1
        assert len({slo.num_packets for slo in forward.report.sessions}) > 1  # churned
        assert forward.report.rebuffer_mean > 0  # lossy
        assert reverse.report == forward.report
        assert reverse_t == forward_t


class TestAbrSessions:
    def _abr_fleet(self, **overrides) -> FleetSpec:
        return _small_fleet(
            sessions=(
                SessionSpec(num_nodes=15, num_packets=6, abr_profile="onoff"),
                SessionSpec(scheme="chain", num_nodes=8, num_packets=6),
            ),
            num_sessions=16,
            **overrides,
        )

    def test_abr_sessions_carry_qoe(self):
        report = FleetRunner(policy=SERIAL).run(self._abr_fleet()).report
        abr = [s for s in report.sessions if s.qoe is not None]
        plain = [s for s in report.sessions if s.qoe is None]
        assert abr and plain
        assert all(s.label.endswith("abr-onoff") for s in abr)
        assert all(s.qoe["tier"] in ("premium", "standard", "degraded") for s in abr)
        assert dict(report.qoe_tiers) and sum(dict(report.qoe_tiers).values()) == len(abr)
        assert "qoe_tier" in abr[0].row()

    def test_qoe_matches_solo_abr_session(self):
        from repro.abr import AbrSessionSpec, build_profile, collect_qoe, run_session

        # Churned viewers play one chunk per packet of their watched prefix.
        result = FleetRunner(policy=SERIAL).run(self._abr_fleet(churn_rate=0.5))
        seeds = {s.session_id: s.seed for s in result.sessions}
        abr = [slo for slo in result.report.sessions if slo.qoe is not None]
        assert len({slo.num_packets for slo in abr}) > 1
        for slo in abr:
            spec = AbrSessionSpec(num_chunks=slo.num_packets)
            trace = build_profile(
                "onoff", max(64, slo.num_packets * spec.chunk_slots),
                seed=seeds[slo.session_id],
            )
            assert slo.qoe == collect_qoe(run_session(spec, trace)).to_dict()

    def test_abr_sessions_share_kernel_units(self):
        result = FleetRunner(policy=SERIAL).run(self._abr_fleet())
        abr = [slo for slo in result.report.sessions if slo.qoe is not None]
        info = result.executor_info
        assert info["units"] < info["tasks"]
        assert info["units"] < len(abr)

    def test_parallel_matches_serial_with_abr(self):
        fleet = self._abr_fleet()
        serial = FleetRunner(policy=SERIAL).run(fleet).report
        parallel = FleetRunner(
            policy=ExecutorPolicy(max_workers=2, mode="parallel")
        ).run(fleet).report
        assert parallel == serial

    def test_abr_report_round_trips(self, tmp_path):
        report = FleetRunner(policy=SERIAL).run(self._abr_fleet()).report
        path = tmp_path / "fleet.json"
        write_fleet_report_json(report, path)
        loaded = read_fleet_report_json(path)
        assert loaded == report
        assert loaded.qoe_tiers == report.qoe_tiers

    def test_unknown_profile_rejected(self):
        with pytest.raises(ReproError, match="unknown ABR trace profile"):
            SessionSpec(abr_profile="lte")


class TestFacade:
    def test_kind_fleet_runs_fleet_spec(self):
        result = run(
            ExperimentSpec(kind="fleet", fleet=_small_fleet(), executor=SERIAL)
        )
        assert isinstance(result.metrics, FleetSLOReport)
        assert len(result.rows) == 30
        assert result.provenance["cache"]["misses"] == 2
        assert result.provenance["executor"]["mode"] == "serial"
        assert result.artifacts["report"] is result.metrics

    def test_default_fleet_built_from_scalars(self):
        result = run(
            ExperimentSpec(
                kind="fleet", scheme="chain", num_nodes=8, num_packets=4,
                executor=SERIAL,
            )
        )
        assert result.metrics.num_sessions == 100
        assert all(slo.label.startswith("chain") for slo in result.metrics.sessions)

    def test_rejects_wrong_fleet_type(self):
        with pytest.raises(ReproError):
            run(ExperimentSpec(kind="fleet", fleet={"num_sessions": 5}))

    def test_profile_records_pipeline_spans(self):
        spec = ExperimentSpec(kind="fleet", fleet=_small_fleet(), executor=SERIAL)
        plain = run(spec)
        profiled = run(spec.with_(profile=True))
        names = {span.name for span in profiled.instrumentation.spans.finished}
        assert {
            "fleet.resolve", "fleet.admit", "fleet.execute", "fleet.aggregate",
            "session.replay",
        } <= names
        assert profiled.metrics == plain.metrics

    def test_top_level_exports(self):
        for name in (
            "FleetSpec", "SessionSpec", "FleetRunner", "FleetSLOReport",
            "SessionManager", "CapacityModel",
        ):
            assert hasattr(repro, name)


class TestExportRoundTrip:
    def test_report_round_trips_through_json_file(self, tmp_path):
        report = FleetRunner(policy=SERIAL).run(_small_fleet()).report
        path = tmp_path / "fleet.json"
        write_fleet_report_json(report, path)
        assert read_fleet_report_json(path) == report

    def test_read_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1, "kind": "nope", "report": {}}')
        with pytest.raises(ReproError):
            read_fleet_report_json(path)


@pytest.fixture(scope="module")
def fleet_json(tmp_path_factory) -> dict:
    """The payload of a ``repro fleet --json`` file."""
    path = tmp_path_factory.mktemp("fleet") / "fleet.json"
    assert main(["fleet", "--sessions", "40", "--mode", "serial", "--seed", "9",
                 "--json", str(path)]) == 0
    return json.loads(path.read_text())


class TestReportReaderErrors:
    """A malformed ``repro fleet --json`` file raises a ReproError naming
    the field (and the session row), never a bare TypeError."""

    def _read(self, payload: dict, tmp_path) -> None:
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        read_fleet_report_json(path)

    def test_missing_session_field(self, fleet_json, tmp_path):
        payload = copy.deepcopy(fleet_json)
        del payload["report"]["sessions"][3]["delay_counts"]
        with pytest.raises(ReproError, match="session row 3: missing field 'delay_counts'"):
            self._read(payload, tmp_path)

    def test_unknown_session_field(self, fleet_json, tmp_path):
        payload = copy.deepcopy(fleet_json)
        payload["report"]["sessions"][0]["colour"] = "red"
        with pytest.raises(ReproError, match="session row 0: unknown field 'colour'"):
            self._read(payload, tmp_path)

    def test_histogram_not_a_list(self, fleet_json, tmp_path):
        payload = copy.deepcopy(fleet_json)
        payload["report"]["sessions"][1]["buffer_counts"] = 5
        with pytest.raises(ReproError, match="session row 1: field 'buffer_counts'"):
            self._read(payload, tmp_path)

    def test_missing_report_field(self, fleet_json, tmp_path):
        payload = copy.deepcopy(fleet_json)
        del payload["report"]["delay_p99"]
        with pytest.raises(ReproError, match="fleet report: missing field 'delay_p99'"):
            self._read(payload, tmp_path)

    def test_sessions_not_a_list(self, fleet_json, tmp_path):
        payload = copy.deepcopy(fleet_json)
        payload["report"]["sessions"] = {"0": payload["report"]["sessions"][0]}
        with pytest.raises(ReproError, match="'sessions' must be a list, got dict"):
            self._read(payload, tmp_path)

    @pytest.mark.parametrize(
        ("field", "value", "expected"),
        [
            ("admitted", "many", "int, got 'many'"),
            ("reject_rate", "x", "float, got 'x'"),
            ("startup_p99", None, "int, got None"),
            ("startup_p99", 3.7, "int, got 3.7"),
            ("cache_hits", True, "int, got True"),
            ("goodput_mean", [1], "float, got [1]"),
        ],
        ids=["str-int", "str-float", "null-int", "float-int", "bool-int", "list-float"],
    )
    def test_report_scalar_of_the_wrong_type(self, fleet_json, tmp_path, field, value, expected):
        payload = copy.deepcopy(fleet_json)
        payload["report"][field] = value
        message = f"fleet report: field '{field}' must be {re.escape(expected)}"
        with pytest.raises(ReproError, match=message):
            self._read(payload, tmp_path)

    def test_float_field_takes_an_int(self, fleet_json, tmp_path):
        payload = copy.deepcopy(fleet_json)
        payload["report"]["reject_rate"] = 0
        path = tmp_path / "int.json"
        path.write_text(json.dumps(payload))
        assert read_fleet_report_json(path).reject_rate == 0

    @pytest.mark.parametrize(
        "entry",
        [["good", "x"], ["good"], "abc", [1, 2, 3]],
        ids=["str-count", "one-entry", "string", "three-entries"],
    )
    def test_qoe_tier_that_is_not_a_pair(self, fleet_json, tmp_path, entry):
        payload = copy.deepcopy(fleet_json)
        payload["report"]["qoe_tiers"] = [["premium", 2], entry]
        with pytest.raises(
            ReproError,
            match=r"field 'qoe_tiers' must be \[str, int\] pairs, got \[\['premium', 2\], ",
        ):
            self._read(payload, tmp_path)

    @pytest.mark.parametrize(
        ("field", "value", "expected"),
        [
            ("startup_delay", 2.5, "int, got 2.5"),
            ("label", 7, "str, got 7"),
            ("qoe", "bad", "dict | None, got 'bad'"),
        ],
        ids=["float-startup", "int-label", "str-qoe"],
    )
    def test_session_field_of_the_wrong_type(self, fleet_json, tmp_path, field, value, expected):
        payload = copy.deepcopy(fleet_json)
        payload["report"]["sessions"][2][field] = value
        with pytest.raises(
            ReproError,
            match=f"session row 2: field '{field}' must be {re.escape(expected)}",
        ):
            self._read(payload, tmp_path)

    @pytest.mark.parametrize(("qoe", "expected"), [
        ({"score": 1}, "session row 4 qoe: missing field 'session_slots'"),
        ({**QOE, "tier": 7}, "session row 4 qoe: field 'tier' must be str, got 7"),
        ({**QOE, "tier": "gold"}, "session row 4 qoe: unknown QoE tier 'gold'"),
        ({**QOE, "rebuffer_events": "many"},
         "session row 4 qoe: field 'rebuffer_events' must be int"),
    ], ids=["no-fields", "int-tier", "unknown-tier", "str-events"])
    def test_session_qoe_is_checked(self, fleet_json, tmp_path, qoe, expected):
        payload = copy.deepcopy(fleet_json)
        payload["report"]["sessions"][4]["qoe"] = qoe
        with pytest.raises(ReproError, match=re.escape(expected)):
            self._read(payload, tmp_path)

    def test_session_qoe_reads_back(self, fleet_json, tmp_path):
        payload = copy.deepcopy(fleet_json)
        payload["report"]["sessions"][4]["qoe"] = QOE
        path = tmp_path / "qoe.json"
        path.write_text(json.dumps(payload))
        assert read_fleet_report_json(path).sessions.rows()[4]["qoe_tier"] == "premium"

    def test_untouched_file_reads_back(self, fleet_json, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet_json, indent=1))
        report = read_fleet_report_json(path)
        write_fleet_report_json(report, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()
