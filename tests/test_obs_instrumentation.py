"""Integration tests: the instrumentation layer wired through the engine,
repair subsystem, churn workloads, and parallel sweeps — including the
acceptance check that a replayed JSONL event stream reproduces the metrics
layer's numbers exactly."""

from __future__ import annotations

import pytest

from repro.core.engine import SimConfig, simulate
from repro.core.errors import ReproError
from repro.core.metrics import collect_repair_metrics, summarize_lossy_playback
from repro.obs import Instrumentation
from repro.obs.events import (
    CHURN_APPLIED,
    GAP_DETECTED,
    PARITY_RECOVERED,
    PLAYBACK_STALL,
    REPAIR_SCHEDULED,
    RUN_END,
    RUN_START,
    SLOT_START,
    TX_DELIVERED,
    TX_DROPPED,
    TX_SENT,
    arrivals_from_events,
    count_events,
    read_events_jsonl,
)
from repro.repair.retransmit import RetransmissionCoordinator
from repro.repair.session import default_grace, make_lossy_protocol, repair_experiment
from repro.repair.slack import SlackPolicy, SlackProvisioner
from repro.trees import MultiTreeProtocol
from repro.workloads.faults import bernoulli_drop


class TestEngineEvents:
    def test_clean_run_event_stream(self):
        protocol = MultiTreeProtocol(15, 3)
        num_slots = protocol.slots_for_packets(9)
        instr = Instrumentation.collecting(profile=True)
        trace = simulate(protocol, num_slots, instrumentation=instr)

        counts = instr.tracer.counts
        assert counts[RUN_START] == 1
        assert counts[RUN_END] == 1
        assert counts[SLOT_START] == num_slots
        assert counts[TX_SENT] == len(trace.transmissions)
        assert counts[TX_DROPPED] == 0
        # Every delivery produced an event; first arrivals match the trace.
        delivered_new = sum(len(a) for a in trace.all_arrivals().values())
        ring = instr.ring_events()
        new_events = [
            e for e in ring if e.name == TX_DELIVERED and e.fields["new"]
        ]
        assert len(new_events) == delivered_new

    def test_run_end_summarizes_run(self):
        protocol = MultiTreeProtocol(7, 3)
        instr = Instrumentation.collecting(profile=False)
        trace = simulate(protocol, protocol.slots_for_packets(6), instrumentation=instr)
        (end,) = [e for e in instr.ring_events() if e.name == RUN_END]
        assert end.fields["sent"] == len(trace.transmissions)
        assert end.fields["dropped"] == len(trace.dropped)
        assert end.fields["delivered"] == sum(
            len(a) for a in trace.all_arrivals().values()
        )

    def test_registry_counters_match_trace(self):
        protocol = MultiTreeProtocol(15, 3)
        instr = Instrumentation.collecting(ring_capacity=None, profile=False)
        trace = simulate(protocol, protocol.slots_for_packets(9), instrumentation=instr)
        label = type(protocol).__name__
        reg = instr.registry
        assert reg.counter("engine.runs", protocol=label).value == 1
        assert reg.counter("engine.tx.sent", protocol=label).value == len(
            trace.transmissions
        )
        assert reg.counter("engine.tx.delivered", protocol=label).value == sum(
            len(a) for a in trace.all_arrivals().values()
        )

    def test_profiler_covers_engine_phases(self):
        protocol = MultiTreeProtocol(15, 3)
        instr = Instrumentation.collecting(ring_capacity=None, profile=True)
        simulate(protocol, protocol.slots_for_packets(6), instrumentation=instr)
        phases = set(instr.profiler.snapshot())
        assert {"schedule", "validate", "deliver"} <= phases

    def test_instrumented_run_matches_uninstrumented(self):
        bare = simulate(MultiTreeProtocol(15, 3), 20)
        instr = Instrumentation.collecting()
        traced = simulate(MultiTreeProtocol(15, 3), 20, instrumentation=instr)
        assert bare.all_arrivals() == traced.all_arrivals()

    def test_replay_matches_trace_arrivals(self, tmp_path):
        path = tmp_path / "events.jsonl"
        protocol = MultiTreeProtocol(15, 3)
        instr = Instrumentation.collecting(
            events_path=path, ring_capacity=None, profile=False
        )
        trace = simulate(protocol, protocol.slots_for_packets(9), instrumentation=instr)
        instr.close()
        replayed = arrivals_from_events(read_events_jsonl(path))
        assert replayed == {n: a for n, a in trace.all_arrivals().items() if a}


class TestHookValidation:
    """Satellite: hook signatures are checked early with a clear ReproError."""

    def test_drop_rule_wrong_arity(self):
        with pytest.raises(ReproError, match=r"drop_rule.*\(transmission\) -> bool"):
            SimConfig(num_slots=1, drop_rule=lambda a, b: False)

    def test_repair_hook_wrong_arity(self):
        with pytest.raises(ReproError, match=r"repair_hook.*slot, arrived, dropped"):
            SimConfig(num_slots=1, repair_hook=lambda slot: None)

    def test_valid_hooks_accepted(self):
        SimConfig(num_slots=1, drop_rule=lambda tx: False)
        SimConfig(num_slots=1, repair_hook=lambda slot, arrived, dropped: None)

    def test_non_callable_still_value_error(self):
        with pytest.raises(ValueError):
            SimConfig(num_slots=1, drop_rule=42)

    def test_flexible_signatures_accepted(self):
        SimConfig(num_slots=1, drop_rule=lambda *args: False)
        SimConfig(num_slots=1, repair_hook=lambda slot, *rest: None)


class TestLossAndRepairEvents:
    def test_drop_events_match_trace(self):
        protocol = make_lossy_protocol("multi-tree", 15, 3)
        instr = Instrumentation.collecting(profile=False)
        trace = simulate(
            protocol,
            protocol.slots_for_packets(12),
            drop_rule=bernoulli_drop(0.05, seed=7),
            instrumentation=instr,
        )
        assert trace.dropped  # the run actually lost something
        assert instr.tracer.counts[TX_DROPPED] == len(trace.dropped)

    def test_retransmit_experiment_emits_repair_events(self, tmp_path):
        path = tmp_path / "repair.jsonl"
        instr = Instrumentation.collecting(events_path=path, profile=False)
        result = repair_experiment(
            "multi-tree", 15, 3, num_packets=20, mode="retransmit",
            epsilon=0.1, loss_rate=0.02, seed=3, instrumentation=instr,
        )
        instr.close()
        counts = count_events(read_events_jsonl(path))
        assert counts[GAP_DETECTED] > 0
        assert counts[REPAIR_SCHEDULED] > 0
        assert counts == instr.tracer.counts

    def test_parity_experiment_emits_recovery_events(self):
        instr = Instrumentation.collecting(profile=False)
        result = repair_experiment(
            "multi-tree", 15, 3, num_packets=16, mode="parity",
            group=4, loss_rate=0.03, seed=1, instrumentation=instr,
        )
        assert instr.tracer.counts[PARITY_RECOVERED] == result.repairs
        assert result.repairs > 0


class TestChurnEvents:
    def test_churn_run_emits_events(self):
        from repro.trees.live import ScheduledChurn, churn_experiment
        from repro.workloads.churn import ChurnEvent

        churn = [
            ScheduledChurn(6, ChurnEvent("add")),
            ScheduledChurn(9, ChurnEvent("delete"), victim=5),
        ]
        instr = Instrumentation.collecting(profile=False)
        protocol, report = churn_experiment(
            18, 3, churn, num_packets=24, instrumentation=instr
        )
        assert instr.tracer.counts[CHURN_APPLIED] == len(protocol.reports)
        assert instr.tracer.counts[PLAYBACK_STALL] == report.total_hiccups


class TestAcceptance:
    """ISSUE acceptance: the JSONL stream of a lossy multi-tree run with
    repair, replayed, reproduces the metrics layer's numbers exactly."""

    def test_replayed_counters_match_metrics_exactly(self, tmp_path):
        path = tmp_path / "acceptance.jsonl"
        num_packets = 20
        protocol = SlackProvisioner(
            make_lossy_protocol("multi-tree", 15, 3), SlackPolicy(epsilon=0.1)
        )
        num_slots = protocol.slots_for_packets(num_packets)
        clean = simulate(protocol, num_slots)

        instr = Instrumentation.collecting(
            events_path=path, ring_capacity=None, profile=False
        )
        coordinator = RetransmissionCoordinator(
            protocol, grace=default_grace(protocol), tracer=instr.tracer
        )
        lossy = simulate(
            protocol, num_slots,
            drop_rule=bernoulli_drop(0.02, seed=3),
            repair_hook=coordinator.hook,
            instrumentation=instr,
        )
        instr.close()
        assert lossy.dropped and lossy.injected  # losses occurred and were repaired

        events = read_events_jsonl(path)
        replayed = {
            node: arrivals_from_events(events).get(node, {}) for node in lossy.nodes
        }
        assert replayed == lossy.all_arrivals()

        from_events = collect_repair_metrics(
            replayed, num_packets=num_packets, num_slots=num_slots,
            baseline=clean.all_arrivals(),
        )
        from_trace = collect_repair_metrics(
            lossy.all_arrivals(), num_packets=num_packets, num_slots=num_slots,
            baseline=clean.all_arrivals(),
        )
        assert from_events == from_trace

        for node in lossy.nodes:
            assert summarize_lossy_playback(
                replayed[node], num_packets
            ) == summarize_lossy_playback(lossy.arrivals(node), num_packets)
