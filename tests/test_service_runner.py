"""Fleet runner: sharded execution, cache amortization, facade + export."""

from __future__ import annotations

import pytest

import repro
from repro.core.errors import ReproError
from repro.exec.executor import ExecutorPolicy, SweepExecutor
from repro.experiments import ExperimentSpec, run
from repro.obs.registry import MetricsRegistry
from repro.reporting.export import read_fleet_report_json, write_fleet_report_json
from repro.service import (
    CapacityModel,
    FleetRunner,
    FleetSLOReport,
    FleetSpec,
    FleetTelemetry,
    SessionSpec,
)
from repro.service.runner import fleet_unit_task

SERIAL = ExecutorPolicy(mode="serial")


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


class TestUnitErrors:
    """A unit's own failure is a ReproError that names the unit."""

    TOKEN = "0123456789abcdef" * 4
    UNIT = (TOKEN, 0.05, 6, 20, (
        (0, 17, "k", "admitted", 5, 0, None),
        (1, 23, "k", "admitted", 6, 2, None),
    ))

    @pytest.mark.parametrize(
        "policy",
        [SERIAL, ExecutorPolicy(mode="parallel", max_workers=2, chunksize=1)],
        ids=["serial", "parallel"],
    )
    def test_missing_token_names_the_unit(self, policy):
        registry = MetricsRegistry()
        executor = SweepExecutor(policy, registry=registry)
        with pytest.raises(ReproError) as info:
            executor.map(fleet_unit_task, [self.UNIT], payload={})
        message = str(info.value)
        assert "fleet unit 0123456789ab (" in message
        assert "2 sessions" in message
        assert "ids 17..23" in message
        assert "KeyError" in message
        names = {row["name"] for row in registry.snapshot()["counters"]}
        assert "executor.fallbacks" not in names

    def test_cause_is_chained(self):
        executor = SweepExecutor(SERIAL)
        with pytest.raises(ReproError) as info:
            executor.map(fleet_unit_task, [self.UNIT], payload={})
        assert isinstance(info.value.__cause__, KeyError)


class TestSketchAggregation:
    def test_sketch_report_close_to_exact(self):
        fleet = _small_fleet(num_sessions=60)
        exact = FleetRunner(policy=SERIAL).run(fleet).report
        sketch = FleetRunner(policy=SERIAL).run(
            _small_fleet(num_sessions=60, aggregation="sketch", sketch_error=0.01)
        ).report
        assert sketch.sessions == ()  # nothing per-session materialized
        assert len(exact.sessions) == 60
        assert sketch.num_sessions == exact.num_sessions
        assert sketch.admitted == exact.admitted
        for field in ("startup_p50", "startup_p99", "delay_p99", "buffer_p99"):
            exact_value = getattr(exact, field)
            drift = abs(getattr(sketch, field) - exact_value)
            assert drift <= 0.01 * exact_value + 1.0, field

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
