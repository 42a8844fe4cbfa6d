"""The load-ramp scenario: statics violate the SLO, the control plane holds.

This is the reduced-scale version of ``benchmarks/bench_control_plane.py``
(and the CI ``control-plane-smoke`` job): same three-phase ramp, smaller
session count, same acceptance claims.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.control import control_record, decisions_from_record
from repro.control.scenario import (
    RAMP_POLICIES,
    RAMP_SLO,
    REJECT_PENALTY_FACTOR,
    compare_policies,
    offered_p99,
    ramp_arrival_slots,
    ramp_fleet,
    run_ramp,
)
from repro.core.errors import ReproError
from repro.exec.executor import ExecutorPolicy
from repro.obs.quantiles import pooled_percentile
from repro.reporting.ledger import RunLedger
from repro.service import FleetRunner

SERIAL = ExecutorPolicy(mode="serial")

SCALE = 0.2  # 48 sessions: smallest scale where the full story reproduces


@pytest.fixture(scope="module")
def outcomes():
    return compare_policies(scale=SCALE, seed=0)


class TestRampTrace:
    def test_trace_is_deterministic_and_sorted(self):
        slots = ramp_arrival_slots(48)
        assert slots == ramp_arrival_slots(48)
        assert list(slots) == sorted(slots)
        assert len(slots) == 48

    def test_burst_phase_is_denser_than_warmup(self):
        slots = ramp_arrival_slots(100)
        warmup, burst = slots[:25], slots[25:75]
        warmup_rate = len(warmup) / (warmup[-1] - warmup[0] + 1)
        burst_rate = len(burst) / (burst[-1] - burst[0] + 1)
        assert burst_rate > 2 * warmup_rate

    def test_too_few_sessions_rejected(self):
        with pytest.raises(ReproError):
            ramp_arrival_slots(2)


class TestRampFleet:
    def test_static_fleets_have_no_controller(self):
        for policy in ("queue", "reject", "degrade"):
            fleet = ramp_fleet(policy, scale=SCALE)
            assert fleet.controller is None
            assert fleet.policy == policy

    def test_adaptive_fleet_carries_the_control_policy(self):
        fleet = ramp_fleet("adaptive", scale=SCALE, slo=20)
        assert fleet.policy == "queue"  # the plane starts at the widest stage
        assert fleet.controller.slo_p99_delay == 20

    def test_unknown_policy_rejected(self):
        with pytest.raises(ReproError):
            ramp_fleet("lru", scale=SCALE)


class TestAcceptance:
    """The PR's acceptance claims, at CI scale."""

    def test_every_static_policy_violates_the_slo(self, outcomes):
        for policy in ("queue", "reject", "degrade"):
            outcome = outcomes[policy]
            assert not outcome.holds_slo, outcome.row()
            assert outcome.offered_p99 > RAMP_SLO

    def test_the_control_plane_holds_the_slo(self, outcomes):
        adaptive = outcomes["adaptive"]
        assert adaptive.holds_slo, adaptive.row()
        assert adaptive.offered_p99 <= RAMP_SLO

    def test_adaptive_throughput_within_ten_percent_of_best_static(
        self, outcomes
    ):
        best_static = max(
            outcomes[p].throughput for p in ("queue", "reject", "degrade")
        )
        assert outcomes["adaptive"].throughput >= 0.9 * best_static

    def test_adaptive_run_actually_decided_something(self, outcomes):
        decisions = outcomes["adaptive"].decisions
        assert decisions, "the control plane never acted"
        assert any(d.action == "retune" for d in decisions)

    def test_statics_make_no_decisions(self, outcomes):
        for policy in ("queue", "reject", "degrade"):
            assert outcomes[policy].decisions == ()

    def test_offered_p99_charges_rejects(self, outcomes):
        # The reject run's offered-p99 must reflect the penalty charge, not
        # just the happy admitted sessions.
        rejected = outcomes["reject"]
        assert rejected.rejected > 0
        assert rejected.offered_p99 > rejected.startup_p99

    def test_every_offered_session_is_scored(self, outcomes):
        for policy in RAMP_POLICIES:
            result = outcomes[policy].result
            assert len(result.decisions) == round(240 * SCALE)

    def test_row_shape(self, outcomes):
        row = outcomes["adaptive"].row()
        assert set(row) == {
            "policy", "offered_p99", "startup_p99", "throughput",
            "rejected", "holds_slo", "decisions",
        }


class TestDeterminismAndReplay:
    def test_ramp_outcome_is_deterministic(self, outcomes):
        again = run_ramp("adaptive", scale=SCALE, seed=0)
        baseline = outcomes["adaptive"]
        assert again.offered_p99 == baseline.offered_p99
        assert again.throughput == baseline.throughput
        assert [d.to_dict() for d in again.decisions] == [
            d.to_dict() for d in baseline.decisions
        ]

    def test_decision_log_round_trips_through_the_ledger(
        self, outcomes, tmp_path
    ):
        adaptive = outcomes["adaptive"]
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(control_record(
            adaptive.decisions,
            epochs=adaptive.result.control_epochs,
            policy={"slo_p99_delay": adaptive.slo},
        ))
        (record,) = [
            r for r in ledger.records() if r.get("record") == "control"
        ]
        assert decisions_from_record(record) == list(adaptive.decisions)
        assert len(record["epochs"]) == len(adaptive.result.control_epochs)

    def test_offered_p99_requires_exact_aggregation(self, outcomes):
        # Guard the scoring contract: the ramp keeps per-session SLOs.
        result = outcomes["queue"].result
        assert result.report.sessions  # aggregation="exact" retained them
        assert offered_p99(result, slo=RAMP_SLO) >= result.report.startup_p99


class TestOfferedP99:
    """``offered_p99`` reads the retained ``startup_delay`` column, and a
    report that did not retain every executed session raises."""

    FLEET = ramp_fleet("queue", scale=1, seed=0)

    def test_exact_result_reads_the_startup_column(self):
        result = FleetRunner(policy=SERIAL).run(self.FLEET)
        report = result.report
        assert len(report.sessions) == report.admitted + report.degraded
        counts = Counter(slo.startup_delay for slo in report.sessions)
        counts[RAMP_SLO * REJECT_PENALTY_FACTOR] += report.rejected
        assert offered_p99(result) == float(pooled_percentile(counts, 99)) == 77.0

    def test_sketch_result_raises_naming_the_aggregation(self):
        result = FleetRunner(policy=SERIAL).run(replace(self.FLEET, aggregation="sketch"))
        assert len(result.report.sessions) == 0
        with pytest.raises(ReproError, match="aggregation='exact'"):
            offered_p99(result)
