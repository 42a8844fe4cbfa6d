"""Golden regression values.

Every number here was produced by the validated implementation and
cross-checked against the paper's examples where the paper gives one.
They pin the exact behaviour of the deterministic schemes so that any
future refactor that shifts a schedule, a construction, or a timing
convention fails loudly here first.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from repro.control.scenario import ramp_fleet
from repro.core.engine import simulate
from repro.core.metrics import collect_metrics
from repro.exec.cache import ScheduleCache
from repro.exec.executor import ExecutorPolicy
from repro.hypercube.cascade import cascade_plan, expected_average_delay, expected_worst_delay
from repro.obs.registry import MetricsRegistry
from repro.service import (
    CapacityModel,
    FleetRunner,
    FleetSpec,
    FleetTelemetry,
    SessionSpec,
)
from repro.trees import MultiTreeProtocol
from repro.trees.analysis import (
    all_playback_delays,
    theorem2_bound,
    theorem3_lower_bound,
    worst_case_delay,
)
from repro.trees.forest import MultiTreeForest
from repro.theory.degree import crossover_population, optimal_degree


class TestMultiTreeGolden:
    def test_paper_example_all_delays(self):
        # N = 15, d = 3, structured: per-node playback delays a(i).
        forest = MultiTreeForest.construct(15, 3)
        assert all_playback_delays(forest) == {
            1: 3, 2: 4, 3: 5, 4: 6, 5: 3, 6: 4, 7: 5, 8: 6,
            9: 3, 10: 4, 11: 5, 12: 6, 13: 7, 14: 7, 15: 7,
        }

    def test_greedy_example_all_delays(self):
        forest = MultiTreeForest.construct(15, 3, "greedy")
        delays = all_playback_delays(forest)
        assert delays[1] == 3  # same node-1 behaviour as structured
        assert max(delays.values()) == 7
        assert sum(delays.values()) == 77

    def test_worst_case_sweep_golden(self):
        # Figure 4 anchor points.
        expected = {
            (100, 2): 11, (100, 3): 11, (100, 4): 13, (100, 5): 13,
            (1000, 2): 17, (1000, 3): 17, (1000, 4): 18, (1000, 5): 21,
            (2000, 2): 19, (2000, 3): 19, (2000, 4): 21, (2000, 5): 22,
        }
        for (n, d), value in expected.items():
            assert worst_case_delay(MultiTreeForest.construct(n, d)) == value

    def test_bounds_golden(self):
        assert theorem2_bound(100, 2) == 12
        assert theorem2_bound(100, 3) == 12
        assert theorem2_bound(2000, 2) == 20
        assert theorem3_lower_bound(1022, 2) == pytest.approx(5.9814, abs=1e-3)

    def test_simulated_metrics_golden(self):
        protocol = MultiTreeProtocol(15, 3)
        trace = simulate(protocol, protocol.slots_for_packets(9))
        metrics = collect_metrics(trace, num_packets=9)
        assert metrics.max_startup_delay == 7
        assert metrics.avg_startup_delay == pytest.approx(4.2667, abs=1e-3)
        assert metrics.max_buffer == 3  # the paper's node-1 buffer example
        assert metrics.max_neighbors == 6


class TestHypercubeGolden:
    def test_cascade_plans(self):
        assert [c.k for c in cascade_plan(100)] == [6, 5, 2, 2]
        assert [c.k for c in cascade_plan(1000)] == [9, 8, 7, 6, 5, 3, 2, 2]
        assert [c.offset for c in cascade_plan(1000)] == [0, 9, 17, 24, 30, 35, 38, 40]

    def test_delay_values(self):
        assert expected_worst_delay(7) == 4
        assert expected_worst_delay(100) == 16
        assert expected_worst_delay(1000) == 43
        assert expected_average_delay(100) == pytest.approx(9.03, abs=0.01)

    def test_single_cube_delays_are_k_plus_one(self):
        for k in range(2, 10):
            assert expected_worst_delay((1 << k) - 1) == k + 1


class TestTheoryGolden:
    def test_degree_crossover(self):
        assert crossover_population() == 322

    def test_optimal_degrees(self):
        assert optimal_degree(100) == 2
        assert optimal_degree(321) == 2
        assert optimal_degree(322) == 3
        assert optimal_degree(10**6) == 3


def _fleet_report(spec, telemetry=None):
    return FleetRunner(
        cache=ScheduleCache(capacity=64),
        policy=ExecutorPolicy(mode="serial"),
        registry=MetricsRegistry(),
        telemetry=telemetry,
    ).run(spec).report


def _golden_fleets():
    lossy = SessionSpec(num_nodes=31, degree=3, num_packets=8, drop_rate=0.05)
    abr = SessionSpec(
        num_nodes=15, degree=2, num_packets=8, abr_profile="sinusoid", weight=0.2
    )
    clean = SessionSpec(scheme="hypercube", num_nodes=32, degree=3, num_packets=8)
    twin = SessionSpec(
        num_nodes=31, degree=3, num_packets=8, drop_rate=0.05, label="twin", weight=0.5
    )
    repair = SessionSpec(
        num_nodes=15, degree=3, num_packets=8, drop_rate=0.02, repair_epsilon=0.2
    )
    return {
        # Exact aggregation: churn, a binding queue budget, a lossy kind and
        # an ABR kind.
        "exact": FleetSpec(
            sessions=(lossy, abr), num_sessions=400, churn_rate=0.3,
            capacity=CapacityModel(source_fanout=30), seed=11,
        ),
        # Sketch aggregation over a lossy and a loss-free kind.
        "sketch": FleetSpec(
            sessions=(lossy, clean), num_sessions=1500, aggregation="sketch",
            arrival_rate=16.0, seed=12,
        ),
        # The control plane's ramp: loss-free units, one per epoch.
        "ramp": ramp_fleet("adaptive", scale=1),
        # No budget can bind, so every chunk takes admission's array-only
        # path: lossy, loss-free, ABR and slack-provisioned kinds, plus a
        # twin of the lossy kind that shares its configuration.
        "unbound": FleetSpec(
            sessions=(lossy, clean, abr, twin, repair), num_sessions=600,
            churn_rate=0.3, capacity=CapacityModel(source_fanout=1e9, backbone=1e9),
            seed=13,
        ),
    }


#: Every scalar field of each golden fleet's report (floats as ``repr``)
#: and the SHA-256 of ``repr(tuple(report.sessions))`` (the v15 tuple).
FLEET_GOLDEN = {
    "exact": (
        {
            "num_sessions": 400,
            "admitted": 306,
            "degraded": 0,
            "queued": 168,
            "rejected": 94,
            "reject_rate": "0.235",
            "startup_p50": 31,
            "startup_p95": 68,
            "startup_p99": 70,
            "startup_max": 72,
            "rebuffer_mean": "0.1057563527202996",
            "rebuffer_max": "0.34838709677419355",
            "delay_p50": 5,
            "delay_p95": 7,
            "delay_p99": 8,
            "buffer_p50": 3,
            "buffer_p99": 5,
            "goodput_mean": "0.18957072359245566",
            "cache_hits": 304,
            "cache_misses": 2,
            "cache_hit_rate": "0.9934640522875817",
            "qoe_tiers": (("standard", 44),),
        },
        "b7d48c0d871e39312523b8def944a5a22c4056710550981351b4974d6b48faa1",
    ),
    "sketch": (
        {
            "num_sessions": 1500,
            "admitted": 1238,
            "degraded": 0,
            "queued": 750,
            "rejected": 262,
            "reject_rate": "0.17466666666666666",
            "startup_p50": 24,
            "startup_p95": 63,
            "startup_p99": 71,
            "startup_max": 72,
            "rebuffer_mean": "0.06028193235707958",
            "rebuffer_max": "0.33064516129032256",
            "delay_p50": 6,
            "delay_p95": 7,
            "delay_p99": 8,
            "buffer_p50": 2,
            "buffer_p99": 4,
            "goodput_mean": "0.34019857797803493",
            "cache_hits": 1236,
            "cache_misses": 2,
            "cache_hit_rate": "0.9983844911147012",
            "qoe_tiers": (),
        },
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ),
    "ramp": (
        {
            "num_sessions": 240,
            "admitted": 240,
            "degraded": 0,
            "queued": 39,
            "rejected": 0,
            "reject_rate": "0.0",
            "startup_p50": 13,
            "startup_p95": 17,
            "startup_p99": 17,
            "startup_max": 19,
            "rebuffer_mean": "0.0",
            "rebuffer_max": "0.0",
            "delay_p50": 8,
            "delay_p95": 11,
            "delay_p99": 12,
            "buffer_p50": 2,
            "buffer_p99": 5,
            "goodput_mean": "0.2857142857142857",
            "cache_hits": 239,
            "cache_misses": 1,
            "cache_hit_rate": "0.9958333333333333",
            "qoe_tiers": (),
        },
        "adbd6e998ba4302a8f0021c1bfe327cc073587f0cf2f91a9ef16215bd74fb722",
    ),
    "unbound": (
        {
            "num_sessions": 600,
            "admitted": 600,
            "degraded": 0,
            "queued": 0,
            "rejected": 0,
            "reject_rate": "0.0",
            "startup_p50": 7,
            "startup_p95": 8,
            "startup_p99": 8,
            "startup_max": 8,
            "rebuffer_mean": "0.05826505803038061",
            "rebuffer_max": "0.2620967741935484",
            "delay_p50": 6,
            "delay_p95": 7,
            "delay_p99": 8,
            "buffer_p50": 2,
            "buffer_p99": 4,
            "goodput_mean": "0.27641152846597056",
            "cache_hits": 596,
            "cache_misses": 4,
            "cache_hit_rate": "0.9933333333333333",
            "qoe_tiers": (("standard", 28),),
        },
        "1f4fc7a871992eed75660c408e7ab295b2f2b7efe361b247b8d95baaf5520e03",
    ),
}


class TestFleetGolden:
    """Fleet reports are byte-identical across refactors of the SLO path."""

    @pytest.mark.parametrize("name", sorted(FLEET_GOLDEN))
    def test_report_pinned(self, name):
        report = _fleet_report(_golden_fleets()[name])
        scalars, digest = FLEET_GOLDEN[name]
        got = {}
        for field in fields(report):
            value = getattr(report, field.name)
            if field.name != "sessions":
                got[field.name] = repr(value) if isinstance(value, float) else value
        assert got == scalars
        rows = repr(tuple(report.sessions))
        assert hashlib.sha256(rows.encode()).hexdigest() == digest

    def test_shared_goodput_is_the_mean(self):
        # Every ramp session has goodput 2/7, so the exact mean is 2/7 too;
        # a float fold of the 240 sessions drifts in the last digits.
        report = _fleet_report(_golden_fleets()["ramp"])
        assert {slo.goodput for slo in report.sessions} == {2 / 7}
        assert report.goodput_mean == 2 / 7


#: SHA-256 of ``repr(FleetTelemetry(trace=False).to_dict())`` after a golden
#: fleet's run: every window's counters and tables, names in insertion
#: order.
TELEMETRY_GOLDEN = {
    "exact": "f4a3f262ccca3eb28304a7c186b1c2ed6ab4aa77c59d8f9c73877b46b0f22ddb",
    "unbound": "3e981a8f5d5ac7a8ef3f38e97e57268d031fae4aca85407d8e64554aa8e58049",
}


@pytest.mark.parametrize("name", sorted(TELEMETRY_GOLDEN))
def test_telemetry_pinned(name):
    telemetry = FleetTelemetry(trace=False)
    _fleet_report(_golden_fleets()[name], telemetry)
    digest = hashlib.sha256(repr(telemetry.to_dict()).encode()).hexdigest()
    assert digest == TELEMETRY_GOLDEN[name]
