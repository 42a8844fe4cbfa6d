"""The unified experiment facade: spec validation, dispatch, provenance and
equality with the legacy entry points."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import simulate as engine_simulate
from repro.core.errors import ReproError
from repro.core.metrics import collect_metrics
from repro.exec.executor import ExecutorPolicy
from repro.experiments import EXPERIMENT_KINDS, ExperimentSpec, run


class TestSpecValidation:
    def test_defaults_are_a_valid_stream_spec(self):
        spec = ExperimentSpec()
        assert spec.kind == "stream"
        assert spec.kind in EXPERIMENT_KINDS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            ExperimentSpec(kind="teleport")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ReproError):
            ExperimentSpec(scheme="torrent")

    def test_drop_rate_range(self):
        with pytest.raises(ReproError):
            ExperimentSpec(drop_rate=1.5)

    def test_grid_axes_coerced_to_tuples(self):
        spec = ExperimentSpec(kind="sweep", seeds=range(3), drop_rates=[0.0, 0.1])
        assert spec.seeds == (0, 1, 2)
        assert spec.drop_rates == (0.0, 0.1)
        assert spec.grid() == [(s, r, spec.num_packets) for r in (0.0, 0.1) for s in (0, 1, 2)]

    def test_with_copies(self):
        spec = ExperimentSpec(num_nodes=15)
        other = spec.with_(num_nodes=31)
        assert other.num_nodes == 31 and spec.num_nodes == 15

    def test_run_rejects_non_spec(self):
        with pytest.raises(ReproError):
            run({"kind": "stream"})


NAN, INF = math.nan, math.inf


class TestSpecBoundary:
    @pytest.mark.parametrize("fields, name, value", [
        ({"num_nodes": 2.5}, "num_nodes", 2.5),
        ({"num_packets": 2.5}, "num_packets", 2.5),
        ({"degree": 2.5}, "degree", 2.5),
        ({"kind": "churn", "churn_events": 2.5}, "churn_events", 2.5),
        ({"seed": -1, "drop_rate": 0.05}, "seed", -1),
        ({"seed": -1, "scheme": "gossip"}, "seed", -1),
        ({"kind": "churn", "seed": -1}, "seed", -1),
        ({"kind": "repair", "seed": -1}, "seed", -1),
        ({"seed": 1.5, "drop_rate": 0.05}, "seed", 1.5),
        ({"num_nodes": True}, "num_nodes", True),
        ({"kind": "churn", "churn_events": -3}, "churn_events", -3),
        ({"kind": "repair", "epsilon": NAN}, "epsilon", NAN),
    ])
    def test_bad_field_is_a_typed_error_naming_it(self, fields, name, value):
        with pytest.raises(ReproError) as excinfo:
            ExperimentSpec(**fields)
        message = str(excinfo.value)
        assert f"ExperimentSpec.{name} " in message and repr(value) in message

    def test_best_effort_gap_is_a_typed_error(self):
        # Gossip may leave a receiver without the measured prefix.
        spec = ExperimentSpec(scheme="gossip", num_nodes=12, num_packets=1, seed=242)
        with pytest.raises(ReproError, match="arrival trace incomplete"):
            run(spec)

    _SPEC = st.fixed_dictionaries({
        "kind": st.sampled_from(["stream", "sweep", "repair", "churn"]),
        "scheme": st.sampled_from(
            ["multi-tree", "hypercube", "grouped-hypercube", "chain",
             "single-tree", "gossip"]
        ),
        "num_nodes": st.integers(min_value=1, max_value=15),
        "degree": st.integers(min_value=1, max_value=4),
        "num_packets": st.integers(min_value=1, max_value=8),
        "seed": st.integers(min_value=0, max_value=2**40),
        "drop_rate": st.sampled_from([0.0, 0.05, 0.2]),
        # A repair run spans four slack periods of 1/epsilon slots, so
        # epsilon comes from a grid, as N and P are kept small.
        "epsilon": st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 0.9]),
        "slack_mode": st.sampled_from(["thin", "capacity"]),
        "group": st.integers(min_value=1, max_value=6),
        "churn_events": st.integers(min_value=0, max_value=5),
        "repair_mode": st.sampled_from(["none", "retransmit", "parity"]),
        "seeds": st.lists(st.integers(min_value=0, max_value=50), max_size=3),
        "drop_rates": st.lists(st.floats(min_value=0, max_value=0.5), max_size=2),
    })
    _ODD = (NAN, INF, -INF, True, False, -1, -3, 0, 2.5)

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_runs_or_raises_repro_error(self, data):
        fields = data.draw(self._SPEC, label="spec")
        # Corrupt up to two numeric fields (or grid entries).
        numeric = sorted(k for k, v in fields.items() if not isinstance(v, str))
        for key in data.draw(st.lists(st.sampled_from(numeric), max_size=2)):
            odd = data.draw(st.sampled_from(self._ODD), label=key)
            fields[key] = (odd,) if key in ("seeds", "drop_rates") else odd
        try:
            result = run(ExperimentSpec(**fields, executor=ExecutorPolicy(mode="serial")))
        except ReproError:
            return
        assert result.rows


class TestStreamKind:
    @pytest.mark.parametrize(
        "scheme, protocol",
        [
            ("multi-tree", lambda: repro.MultiTreeProtocol(15, 3)),
            ("hypercube", lambda: repro.HypercubeCascadeProtocol(15)),
        ],
        ids=["multi-tree", "hypercube"],
    )
    def test_matches_direct_engine_run(self, scheme, protocol):
        """The compiled replay equals the object protocol's engine run."""
        spec = ExperimentSpec(scheme=scheme, num_nodes=15, degree=3, num_packets=12)
        result = run(spec)
        protocol = protocol()
        trace = engine_simulate(protocol, protocol.slots_for_packets(12))
        assert result.row == collect_metrics(trace, num_packets=12).row()
        assert result.trace.all_arrivals() == trace.all_arrivals()
        assert result.trace.transmissions == trace.transmissions
        assert result.provenance["compiled"] is True

    def test_second_run_hits_schedule_cache(self):
        spec = ExperimentSpec(scheme="multi-tree", num_nodes=21, degree=2, num_packets=9)
        run(spec)
        again = run(spec)
        assert again.provenance["cache"] == "memory"

    def test_lossy_stream_needs_loss_aware_scheme(self):
        with pytest.raises(ReproError):
            run(ExperimentSpec(scheme="chain", num_nodes=8, drop_rate=0.1))

    def test_timing_recorded(self):
        result = run(ExperimentSpec(num_nodes=7, degree=2, num_packets=4))
        assert result.timing_s > 0


class TestRepairKind:
    def test_matches_legacy_entry_point(self):
        from repro.repair.session import repair_experiment

        result = run(ExperimentSpec(
            kind="repair", scheme="multi-tree", num_nodes=7, degree=3,
            num_packets=12, repair_mode="retransmit", epsilon=0.2,
            drop_rate=0.05, seed=3,
        ))
        point = repair_experiment(
            "multi-tree", 7, 3, num_packets=12, mode="retransmit",
            epsilon=0.2, loss_rate=0.05, seed=3,
        )
        assert result.row == point.row()
        assert result.artifacts["point"].num_slots == point.num_slots


class TestChurnKind:
    def test_matches_legacy_entry_point(self):
        from repro.trees.live import churn_experiment, random_churn_schedule

        result = run(ExperimentSpec(
            kind="churn", num_nodes=15, degree=3, num_packets=20,
            churn_events=4, seed=7,
        ))
        _, report = churn_experiment(
            15, 3, random_churn_schedule(15, 4, seed=7), num_packets=20
        )
        assert result.row["total_hiccups"] == report.total_hiccups
        assert result.metrics is report or result.metrics.total_hiccups == report.total_hiccups

    def test_schedule_is_reproducible(self):
        from repro.trees.live import random_churn_schedule

        assert random_churn_schedule(15, 5, seed=3) == random_churn_schedule(15, 5, seed=3)
        assert random_churn_schedule(15, 5, seed=3) != random_churn_schedule(15, 5, seed=4)


class TestSweepKind:
    def test_serial_and_parallel_agree(self):
        base = ExperimentSpec(
            kind="sweep", scheme="multi-tree", num_nodes=15, degree=3,
            num_packets=10, seeds=range(4), drop_rates=(0.0, 0.05),
        )
        serial = run(base.with_(executor=ExecutorPolicy(mode="serial")))
        parallel = run(base.with_(executor=ExecutorPolicy(mode="parallel", max_workers=2)))
        assert serial.rows == parallel.rows
        assert serial.provenance["executor"]["mode"] == "serial"
        assert parallel.provenance["executor"]["mode"] in ("parallel", "serial")

    def test_serial_sweep_ignores_the_host_core_count(self, monkeypatch):
        spec = ExperimentSpec(
            kind="sweep", scheme="multi-tree", num_nodes=15, degree=3,
            num_packets=10, seeds=range(6), drop_rates=(0.0, 0.05),
            executor=ExecutorPolicy(mode="serial"),
        )
        plain = run(spec)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        many_cores = run(spec)
        assert many_cores.rows == plain.rows
        # A serial sweep runs one seed block per rate on every host.
        assert many_cores.provenance["executor"]["tasks"] == 2
        assert plain.provenance["executor"]["tasks"] == 2

    def test_lossfree_sweep_matches_stream_metrics(self):
        stream = run(ExperimentSpec(scheme="multi-tree", num_nodes=15, num_packets=10))
        sweep = run(ExperimentSpec(
            kind="sweep", scheme="multi-tree", num_nodes=15, num_packets=10,
            seeds=(0,), drop_rates=(0.0,),
        ))
        row = sweep.rows[0]
        assert row["residual"] == 0
        assert row["max_delay"] == stream.row["max_delay"]
        assert row["max_buffer"] == stream.row["max_buffer"]

    def test_sweep_rejects_randomized_schemes(self):
        with pytest.raises(ReproError):
            run(ExperimentSpec(kind="sweep", scheme="gossip", seeds=(0, 1)))


class TestAbrKind:
    def test_abr_is_a_kind(self):
        assert "abr" in EXPERIMENT_KINDS

    def test_default_sweep_runs_and_is_deterministic(self):
        spec = ExperimentSpec(kind="abr", abr_chunks=8, abr_chunk_slots=2)
        a = run(spec)
        b = run(spec)
        assert a.rows == b.rows
        report = a.metrics
        assert len(report.points) == len(report.profiles) * len(report.startup_grid)
        assert a.provenance["tier_counts"] == report.tier_counts()
        assert sum(report.tier_counts().values()) == len(report.points)

    def test_matches_direct_sweep_call(self):
        from repro.abr import abr_tradeoff

        result = run(ExperimentSpec(
            kind="abr", abr_profiles=("steady", "step"), abr_startups=(1, 4),
            abr_chunks=8, abr_chunk_slots=2, seed=2,
        ))
        direct = abr_tradeoff(("steady", "step"), (1, 4), num_chunks=8,
                              chunk_slots=2, seed=2)
        assert result.metrics == direct

    def test_validation(self):
        with pytest.raises(ReproError):
            ExperimentSpec(kind="abr", abr_chunks=0)
        with pytest.raises(ReproError):
            ExperimentSpec(kind="abr", abr_chunk_slots=0)

    def test_artifact_carries_report(self):
        result = run(ExperimentSpec(kind="abr", abr_profiles=("steady",),
                                    abr_startups=(1,), abr_chunks=4))
        assert result.artifacts["report"] is result.metrics


class TestPublicSurface:
    @pytest.mark.parametrize(
        "name",
        ["ExperimentSpec", "ExperimentResult", "run", "compile_schedule",
         "CompiledSchedule", "ScheduleCache", "SweepExecutor", "ExecutorPolicy"],
    )
    def test_facade_names_exported(self, name):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
