"""Tests for the feedback control plane (repro.control)."""

from __future__ import annotations

import json
import re

import pytest

from repro.control import (
    ControlDecision,
    ControlPlane,
    ControlPolicy,
    EpochObservation,
    SLOController,
    DegreeOptimizer,
    ChurnRepairController,
    control_record,
    decisions_from_record,
)
from repro.core.errors import ReproError
from repro.obs import EventTracer, MetricsRegistry, RingBufferSink
from repro.obs.convergence import ConvergenceCriterion
from repro.obs.registry import use_registry
from repro.reporting.ledger import RunLedger
from repro.trees.live import fleet_repair
from repro.service.runner import FleetRunner
from repro.service.spec import CapacityModel, FleetSpec, SessionSpec


def _obs(epoch=0, p99=None, **kw):
    return EpochObservation(epoch=epoch, p99=p99, **kw)


class TestControlPolicy:
    def test_defaults_are_valid(self):
        policy = ControlPolicy()
        assert policy.ladder == ("queue", "degrade", "reject")
        assert policy.degree_candidates == (2, 3)

    def test_band_brackets_the_setpoint(self):
        policy = ControlPolicy(slo_p99_delay=20, hysteresis=0.15)
        low, high = policy.band
        assert low == pytest.approx(17.0)
        assert high == pytest.approx(23.0)

    def test_zero_hysteresis_band_collapses(self):
        low, high = ControlPolicy(slo_p99_delay=10, hysteresis=0.0).band
        assert low == high == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(slo_p99_delay=0),
            dict(epoch_sessions=0),
            dict(hysteresis=1.0),
            dict(hysteresis=-0.1),
            dict(cooldown_epochs=-1),
            dict(ladder=()),
            dict(ladder=("queue", "drop")),
            dict(min_queue_slots=0),
            dict(degree_candidates=(1, 2)),
            dict(churn_threshold=0.0),
            dict(lazy_repair_threshold=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            ControlPolicy(**kwargs)


class TestControlDecision:
    def test_round_trips_through_json(self):
        decision = ControlDecision(
            epoch=3, controller="slo", action="tighten",
            reason="p99 24 > band high 20.7", observed_p99=24.0,
            target_p99=18, detail={"max_queue_slots": [8, 4]},
        )
        wire = json.loads(json.dumps(decision.to_dict()))
        assert ControlDecision.from_dict(wire) == decision

    def test_none_p99_survives_round_trip(self):
        decision = ControlDecision(
            epoch=0, controller="degree", action="retune", reason="mix shift"
        )
        assert ControlDecision.from_dict(decision.to_dict()).observed_p99 is None

    def test_unknown_controller_rejected(self):
        with pytest.raises(ReproError):
            ControlDecision(epoch=0, controller="pid", action="x", reason="r")

    def test_negative_epoch_rejected(self):
        with pytest.raises(ReproError):
            ControlDecision(epoch=-1, controller="slo", action="x", reason="r")

    _WIRE = {"epoch": 3, "controller": "slo", "action": "tighten", "reason": "r",
             "observed_p99": 24.0, "target_p99": 18, "detail": {}}

    @pytest.mark.parametrize(("change", "message"), [
        ({"epoch": None}, "missing field 'epoch'"),
        ({"epoch": "x"}, "field 'epoch' must be int, got 'x'"),
        ({"epoch": 1.9}, "field 'epoch' must be int, got 1.9"),
        ({"observed_p99": "3"}, "field 'observed_p99' must be float | None, got '3'"),
        ({"target_p99": 18.5}, "field 'target_p99' must be int, got 18.5"),
        ({"colour": "red"}, "unknown field 'colour'"),
        ({"detail": [1]}, "field 'detail' must be dict, got [1]"),
    ], ids=["missing", "str-epoch", "float-epoch", "str-p99", "float-target", "unknown",
            "list-detail"])
    def test_malformed_wire_dict_rejected(self, change, message):
        wire = {**self._WIRE, **change}
        wire = {key: value for key, value in wire.items() if value is not None}
        with pytest.raises(ReproError, match=re.escape(f"control decision: {message}")):
            ControlDecision.from_dict(wire)

    def test_tampered_log_names_the_decision(self):
        record = control_record([ControlDecision.from_dict(self._WIRE)] * 2)
        record["decisions"][1]["epoch"] = "1"
        with pytest.raises(ReproError, match="control record decision 1: field 'epoch'"):
            decisions_from_record(record)

    def test_row_is_compact(self):
        row = ControlDecision(
            epoch=1, controller="churn", action="repair", reason="r",
            observed_p99=12.0,
        ).row()
        assert row == {
            "epoch": 1, "controller": "churn", "action": "repair",
            "p99": 12.0, "reason": "r",
        }


class TestSLOController:
    def _controller(self, **policy_kw):
        policy_kw.setdefault("slo_p99_delay", 18)
        policy_kw.setdefault("hysteresis", 0.15)
        policy_kw.setdefault("cooldown_epochs", 0)
        policy = ControlPolicy(**policy_kw)
        return SLOController(policy, initial_stage="queue", max_queue_slots=8)

    def test_escalation_walk_tightens_then_advances_ladder(self):
        ctl = self._controller(min_queue_slots=1)
        hot = 30.0  # far above the band
        actions = []
        for epoch in range(7):
            decision = ctl.decide(_obs(epoch=epoch, p99=hot))
            actions.append(None if decision is None else decision.action)
        # 8 -> 4 -> 2 -> 1, then queue -> degrade -> reject, then no move.
        assert actions == [
            "tighten", "tighten", "tighten", "escalate", "escalate", None, None,
        ]
        assert ctl.stage == "reject"
        assert ctl.max_queue_slots == 1

    def test_relaxation_reverses_the_walk(self):
        ctl = self._controller(min_queue_slots=1)
        for epoch in range(5):
            ctl.decide(_obs(epoch=epoch, p99=30.0))
        cold = 5.0  # far below the band
        actions = []
        for epoch in range(5, 11):
            decision = ctl.decide(_obs(epoch=epoch, p99=cold))
            actions.append(None if decision is None else decision.action)
        # reject -> degrade -> queue, then 1 -> 2 -> 4 -> 8, then done.
        assert actions == ["relax", "relax", "widen", "widen", "widen", None]
        assert ctl.stage == "queue"
        assert ctl.max_queue_slots == 8

    def test_in_band_p99_never_acts(self):
        ctl = self._controller()
        low, high = ctl.policy.band
        for p99 in (low, (low + high) / 2, high):
            assert ctl.decide(_obs(p99=p99)) is None

    def test_no_signal_no_action(self):
        ctl = self._controller()
        assert ctl.decide(_obs(p99=None)) is None

    def test_cooldown_gates_consecutive_moves(self):
        ctl = self._controller(cooldown_epochs=2, min_queue_slots=1)
        assert ctl.decide(_obs(epoch=0, p99=30.0)).action == "tighten"
        # Two quiet epochs even though the signal stays hot.
        assert ctl.decide(_obs(epoch=1, p99=30.0)) is None
        assert ctl.decide(_obs(epoch=2, p99=30.0)) is None
        assert ctl.decide(_obs(epoch=3, p99=30.0)).action == "tighten"

    def test_bound_never_drops_below_floor(self):
        ctl = self._controller(min_queue_slots=3)
        ctl.decide(_obs(epoch=0, p99=30.0))
        assert ctl.max_queue_slots == 4
        ctl.decide(_obs(epoch=1, p99=30.0))
        assert ctl.max_queue_slots == 3  # clamped, not 2

    def test_decision_records_the_band_violation(self):
        ctl = self._controller()
        decision = ctl.decide(_obs(epoch=2, p99=30.0))
        assert decision.controller == "slo"
        assert decision.observed_p99 == 30.0
        assert decision.target_p99 == 18
        assert "band high" in decision.reason


class TestDegreeOptimizer:
    def _kinds(self, num_nodes=127, degree=3, scheme="multi-tree"):
        spec = SessionSpec(scheme=scheme, num_nodes=num_nodes, degree=degree)
        return {spec.label: spec}

    def _mix(self, kinds, count=8):
        return tuple((label, count) for label in sorted(kinds))

    def test_retunes_to_theorem2_argmin_on_first_sight(self):
        # N=127: h*d is 14 at d=2 vs 15 at d=3 -> retune to 2.
        policy = ControlPolicy(cooldown_epochs=0)
        opt = DegreeOptimizer(policy)
        kinds = self._kinds(num_nodes=127, degree=3)
        decision = opt.decide(_obs(mix=self._mix(kinds)), kinds)
        assert decision.action == "retune"
        (label,) = kinds
        assert decision.detail["degrees"] == {label: [3, 2]}
        assert opt.overrides == {label: 2}

    def test_already_optimal_kind_is_left_alone(self):
        # N=255: h*d is 16 at d=2 vs 15 at d=3 -> d=3 already optimal.
        opt = DegreeOptimizer(ControlPolicy(cooldown_epochs=0))
        kinds = self._kinds(num_nodes=255, degree=3)
        assert opt.decide(_obs(mix=self._mix(kinds)), kinds) is None
        assert opt.overrides == {}

    def test_seen_mix_in_band_stays_quiet(self):
        opt = DegreeOptimizer(ControlPolicy(cooldown_epochs=0))
        kinds = self._kinds(num_nodes=127)
        assert opt.decide(_obs(epoch=0, mix=self._mix(kinds)), kinds) is not None
        # Same mix, p99 inside the band: no trigger at all.
        assert opt.decide(_obs(epoch=1, p99=18.0, mix=self._mix(kinds)), kinds) is None

    def test_out_of_band_p99_reevaluates_seen_mix(self):
        policy = ControlPolicy(cooldown_epochs=0, degree_candidates=(2, 3))
        opt = DegreeOptimizer(policy)
        kinds = self._kinds(num_nodes=127, degree=3)
        mix = self._mix(kinds)
        opt.decide(_obs(epoch=0, mix=mix), kinds)
        (label,) = kinds
        opt.overrides[label] = 3  # pretend an operator reverted the retune
        decision = opt.decide(_obs(epoch=1, p99=40.0, mix=mix), kinds)
        assert decision is not None
        assert "out of band" in decision.reason

    def test_min_degree_floor_filters_candidates(self):
        opt = DegreeOptimizer(ControlPolicy(cooldown_epochs=0), min_degree=3)
        kinds = self._kinds(num_nodes=127, degree=3)
        # d=2 would win, but the fleet's degrade floor is 3.
        assert opt.decide(_obs(mix=self._mix(kinds)), kinds) is None

    def test_disabled_optimizer_never_acts(self):
        opt = DegreeOptimizer(ControlPolicy(reoptimize_degree=False))
        kinds = self._kinds(num_nodes=127)
        assert opt.decide(_obs(mix=self._mix(kinds)), kinds) is None

    def test_non_multi_tree_kinds_are_skipped(self):
        opt = DegreeOptimizer(ControlPolicy(cooldown_epochs=0))
        kinds = self._kinds(num_nodes=127, scheme="single-tree")
        assert opt.decide(_obs(mix=self._mix(kinds)), kinds) is None


class TestChurnRepairController:
    def _setup(self, **policy_kw):
        policy_kw.setdefault("cooldown_epochs", 0)
        policy_kw.setdefault("churn_threshold", 0.25)
        policy_kw.setdefault("lazy_repair_threshold", 0.5)
        ctl = ChurnRepairController(ControlPolicy(**policy_kw), seed=7)
        spec = SessionSpec(num_nodes=13, degree=3)
        kinds = {spec.label: spec}
        mix = tuple((label, 8) for label in sorted(kinds))
        return ctl, kinds, mix

    def test_below_threshold_stays_quiet(self):
        ctl, kinds, mix = self._setup()
        obs = _obs(arrivals=8, joins=8, leaves=1, mix=mix)  # 0.125 < 0.25
        assert ctl.decide(obs, kinds, degrees={}) is None

    def test_fires_eager_repair_at_threshold(self):
        ctl, kinds, mix = self._setup()
        obs = _obs(arrivals=8, joins=8, leaves=3, mix=mix)  # 0.375
        decision = ctl.decide(obs, kinds, degrees={})
        assert decision.action == "repair"
        assert decision.detail["lazy"] is False
        (label,) = kinds
        kind_row = decision.detail["kinds"][label]
        # Every join and leave repaired, plus the trailing eager compact.
        assert kind_row["operations"] == 8 + 3 + 1
        assert kind_row["swaps"] >= 0
        assert set(kind_row) == {"swaps", "touched", "operations"}
        assert set(decision.detail) == {"intensity", "lazy", "kinds"}

    def test_heavy_churn_goes_lazy(self):
        ctl, kinds, mix = self._setup()
        obs = _obs(arrivals=8, joins=8, leaves=6, mix=mix)  # 0.75 >= 0.5
        decision = ctl.decide(obs, kinds, degrees={})
        assert decision.detail["lazy"] is True
        assert "(lazy)" in decision.reason

    def test_repairs_at_the_overridden_degree(self):
        ctl, kinds, mix = self._setup()
        ((label, spec),) = kinds.items()
        obs = _obs(arrivals=8, joins=8, leaves=3, mix=mix)
        decision = ctl.decide(obs, kinds, degrees={label: 2})
        outcome = fleet_repair(
            spec.num_nodes, 2, joins=8, leaves=3, lazy=False,
            construction=spec.construction, seed=7 + obs.epoch,
        )
        assert decision.detail["kinds"][label] == {
            "swaps": outcome.swaps,
            "touched": len(outcome.touched),
            "operations": len(outcome.reports),
        }

    def test_cooldown_after_firing(self):
        ctl, kinds, mix = self._setup(cooldown_epochs=1)
        hot = _obs(arrivals=8, joins=8, leaves=4, mix=mix)
        assert ctl.decide(hot, kinds, degrees={}) is not None
        assert ctl.decide(hot, kinds, degrees={}) is None
        assert ctl.decide(hot, kinds, degrees={}) is not None

    def test_no_arrivals_no_division(self):
        ctl, kinds, mix = self._setup()
        obs = _obs(arrivals=0, joins=0, leaves=0, mix=())
        assert ctl.decide(obs, kinds, degrees={}) is None


class TestControlPlane:
    def _plane(self, registry, **policy_kw):
        policy_kw.setdefault("cooldown_epochs", 0)
        sink = RingBufferSink()
        plane = ControlPlane(
            ControlPolicy(**policy_kw),
            initial_policy="queue", max_queue_slots=8,
            tracer=EventTracer(sink),
        )
        return plane, sink

    def test_step_runs_degree_then_slo_and_counts(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            plane, sink = self._plane(registry)
            spec = SessionSpec(num_nodes=127, degree=3)
            kinds = {spec.label: spec}
            made = plane.step(
                _obs(epoch=0, p99=40.0, mix=((spec.label, 8),)), kinds
            )
        # Fixed order: the degree retune is decided before the SLO move.
        assert [d.controller for d in made] == ["degree", "slo"]
        assert plane.degree_overrides == {spec.label: 2}
        assert plane.admission_policy == "queue"  # tighten moved the bound
        assert plane.max_queue_slots == 4
        assert plane.decisions == made
        counters = {
            (row["name"], row["labels"]): row["value"]
            for row in registry.rows() if row["kind"] == "counter"
        }
        assert counters[("control.epochs", "")] == 1
        assert counters[
            ("control.decisions", "action=retune,controller=degree")
        ] == 1
        assert counters[
            ("control.decisions", "action=tighten,controller=slo")
        ] == 1
        events = [e for e in sink.events if e.name == "control_decision"]
        assert [e.fields["controller"] for e in events] == ["degree", "slo"]

    def test_churn_repair_compiles_nothing(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            plane, _ = self._plane(registry, churn_threshold=0.25)
            spec = SessionSpec(num_nodes=13, degree=3, num_packets=4)
            made = plane.step(
                _obs(
                    epoch=0, arrivals=8, joins=8, leaves=4,
                    mix=((spec.label, 8),),
                ),
                {spec.label: spec},
            )
        assert [d.controller for d in made if d.action == "repair"] == ["churn"]
        counters = {
            (row["name"], row["labels"]): row["value"]
            for row in registry.rows() if row["kind"] == "counter"
        }
        assert counters[("control.repair_swaps", "")] >= 1
        # A compiled schedule is a pure function of its key: the repair
        # neither invalidates nor compiles one.
        assert not any(name.startswith("schedule_cache.") for name, _ in counters)

    def test_quiet_epoch_makes_no_decisions(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            plane, sink = self._plane(registry)
            spec = SessionSpec(num_nodes=255, degree=3)  # already optimal
            made = plane.step(
                _obs(epoch=0, p99=18.0, mix=((spec.label, 8),)),
                {spec.label: spec},
            )
        assert made == []
        assert plane.decisions == []


class TestDecisionLog:
    def _decisions(self):
        return [
            ControlDecision(
                epoch=0, controller="degree", action="retune",
                reason="mix shift", detail={"degrees": {"k": [3, 2]}},
            ),
            ControlDecision(
                epoch=2, controller="slo", action="tighten",
                reason="p99 24 > band high 20.7", observed_p99=24.0,
                target_p99=18, detail={"max_queue_slots": [8, 4]},
            ),
        ]

    def test_record_round_trips(self):
        decisions = self._decisions()
        record = control_record(
            decisions,
            epochs=[{"epoch": 0, "observed_p99": None}],
            policy={"slo_p99_delay": 18},
        )
        assert record["record"] == "control"
        assert record["policy"] == {"slo_p99_delay": 18}
        assert decisions_from_record(record) == decisions

    def test_round_trips_through_the_ledger_file(self, tmp_path):
        decisions = self._decisions()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(control_record(decisions))
        records = [
            r for r in ledger.records() if r.get("record") == "control"
        ]
        assert len(records) == 1
        assert decisions_from_record(records[0]) == decisions

    def test_rejects_non_control_records(self):
        with pytest.raises(ReproError):
            decisions_from_record({"record": "run"})
        with pytest.raises(ReproError):
            decisions_from_record({"record": "control", "decisions": "oops"})


class TestFleetSpecController:
    def _fleet(self, **kw):
        return FleetSpec(
            sessions=(SessionSpec(num_nodes=13, degree=3),),
            num_sessions=8, arrival="uniform", arrival_rate=0.5, horizon=20,
            **kw,
        )

    def test_accepts_a_control_policy(self):
        fleet = self._fleet(controller=ControlPolicy())
        assert fleet.controller is not None

    def test_rejects_non_policy_objects(self):
        with pytest.raises(ReproError, match="controller"):
            self._fleet(controller=object())

    def test_controller_excludes_convergence_mode(self):
        with pytest.raises(ReproError, match="epoch loop"):
            self._fleet(
                controller=ControlPolicy(), convergence=ConvergenceCriterion()
            )


class TestControlledRunner:
    def _fleet(self, *, seed=0):
        return FleetSpec(
            sessions=(SessionSpec(num_nodes=127, degree=3, num_packets=8),),
            num_sessions=40, arrival="trace",
            arrival_slots=tuple(range(0, 80, 2)),
            seed=seed,
            capacity=CapacityModel(source_fanout=48.0, backbone=1e9),
            policy="queue", max_queue_slots=32, min_degree=2,
            aggregation="exact",
            controller=ControlPolicy(
                slo_p99_delay=18, epoch_sessions=16, cooldown_epochs=1,
            ),
        )

    def test_controlled_run_surfaces_decisions_and_epochs(self):
        result = FleetRunner().run(self._fleet())
        # The degree optimizer fires on the first epoch's mix.
        assert any(d.action == "retune" for d in result.control_decisions)
        assert len(result.control_epochs) >= 3  # ceil(40/16) epochs
        first = result.control_epochs[0]
        assert first["epoch"] == 0
        assert first["observed_p99"] is None  # nothing ran yet
        for row in result.control_epochs:
            assert {
                "epoch", "arrivals", "observed_p99", "policy",
                "max_queue_slots", "admitted", "degraded", "rejected",
                "queued", "decisions",
            } <= set(row)
        # Epoch decision tallies agree with the flat decision list.
        assert sum(r["decisions"] for r in result.control_epochs) == len(
            result.control_decisions
        )
        # Every offered session got exactly one terminal decision.
        assert len(result.decisions) == 40

    def test_retuned_kinds_keep_their_own_spec(self):
        # Both kinds retune d=3 -> d=2 in epoch 0; each session must run
        # its own kind at the new degree.
        fleet = FleetSpec(
            sessions=(
                SessionSpec(num_nodes=127, degree=3, num_packets=8),
                SessionSpec(num_nodes=63, degree=3, num_packets=8),
            ),
            num_sessions=40,
            capacity=CapacityModel(source_fanout=1e9, backbone=1e9),
            controller=ControlPolicy(epoch_sessions=16),
        )
        result = FleetRunner().run(fleet)
        (retune,) = [d for d in result.control_decisions if d.action == "retune"]
        assert retune.epoch == 0 and len(retune.detail["degrees"]) == 2
        kinds = {s.session_id: s.spec.num_nodes for s in result.sessions}
        assert len(set(kinds.values())) == 2
        for slo in result.report.sessions:
            n = kinds[slo.session_id]
            assert slo.num_nodes == n
            assert slo.label == f"multi-tree/N{n}/d2"

    def test_static_run_has_empty_control_fields(self):
        fleet = self._fleet()
        static = FleetSpec(
            **{
                **{f: getattr(fleet, f) for f in fleet.__dataclass_fields__},
                "controller": None,
            }
        )
        result = FleetRunner().run(static)
        assert result.control_decisions == ()
        assert result.control_epochs == ()

    def test_decisions_deterministic_in_spec_and_seed(self):
        first = FleetRunner().run(self._fleet(seed=3))
        second = FleetRunner().run(self._fleet(seed=3))
        assert [d.to_dict() for d in first.control_decisions] == [
            d.to_dict() for d in second.control_decisions
        ]
        assert first.control_epochs == second.control_epochs
        assert first.report.startup_p99 == second.report.startup_p99

    def test_experiment_artifacts_carry_the_decision_log(self):
        from repro.exec.executor import ExecutorPolicy
        from repro.experiments import ExperimentSpec, run
        from repro.reporting.ledger import run_record

        spec = ExperimentSpec(
            kind="fleet", fleet=self._fleet(),
            executor=ExecutorPolicy(mode="serial"),
        )
        result = run(spec)
        artifacts = result.artifacts
        assert artifacts["control_decisions"]  # JSON-safe decision rows
        for row in artifacts["control_decisions"]:
            ControlDecision.from_dict(row)
        assert artifacts["epochs"]
        assert artifacts["rejected_sessions"] == tuple(
            d.session_id
            for d in artifacts["decisions"] if d.status == "rejected"
        )
        # The ledger record marks the run as controlled.
        assert run_record(spec, result)["spec"]["controlled"] is True

    def test_static_experiment_has_no_control_artifacts(self):
        from repro.exec.executor import ExecutorPolicy
        from repro.experiments import ExperimentSpec, run
        from repro.reporting.ledger import run_record

        fleet = FleetSpec(
            sessions=(SessionSpec(num_nodes=13, degree=3, num_packets=4),),
            num_sessions=6,
        )
        spec = ExperimentSpec(
            kind="fleet", fleet=fleet, executor=ExecutorPolicy(mode="serial")
        )
        result = run(spec)
        assert "control_decisions" not in result.artifacts
        assert "epochs" not in result.artifacts
        assert result.artifacts["rejected_sessions"] == ()
        assert "controlled" not in run_record(spec, result)["spec"]

    def test_replay_from_ledger_record_matches_rerun(self, tmp_path):
        result = FleetRunner().run(self._fleet(seed=5))
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(control_record(
            result.control_decisions, epochs=result.control_epochs,
        ))
        (record,) = list(ledger.records())
        replayed = decisions_from_record(record)
        rerun = FleetRunner().run(self._fleet(seed=5))
        assert replayed == list(rerun.control_decisions)
