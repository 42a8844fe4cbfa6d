"""Fleet scenario model: session kinds, capacity budgets, deterministic resolve."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.exec.executor import ExecutorPolicy
from repro.obs.convergence import ConvergenceCriterion
from repro.obs.registry import MetricsRegistry
from repro.service.runner import FleetRunner
from repro.service.spec import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    CapacityModel,
    FleetSpec,
    ResolvedSession,
    SessionSpec,
    SessionTable,
)
from repro.workloads.arrivals import (
    poisson_arrival_slots,
    trace_arrival_slots,
    uniform_arrival_slots,
)


class TestArrivalGenerators:
    def test_poisson_sorted_deterministic(self):
        a = poisson_arrival_slots(50, 2.0, seed=3)
        b = poisson_arrival_slots(50, 2.0, seed=3)
        assert a == b
        assert a == sorted(a)
        assert all(s >= 0 for s in a)
        assert len(a) == 50

    def test_poisson_rate_scales_span(self):
        slow = poisson_arrival_slots(200, 0.5, seed=1)
        fast = poisson_arrival_slots(200, 5.0, seed=1)
        assert max(fast) < max(slow)

    def test_uniform_within_horizon(self):
        slots = uniform_arrival_slots(40, 10, seed=2)
        assert len(slots) == 40
        assert slots == sorted(slots)
        assert all(0 <= s < 10 for s in slots)

    def test_trace_cycles_past_span(self):
        slots = trace_arrival_slots(7, (0, 2, 5))
        assert slots == [0, 2, 5, 6, 8, 11, 12]

    def test_bad_arguments(self):
        with pytest.raises(ReproError):
            poisson_arrival_slots(0, 1.0)
        with pytest.raises(ReproError):
            poisson_arrival_slots(5, 0.0)
        with pytest.raises(ReproError):
            uniform_arrival_slots(5, 0)
        with pytest.raises(ReproError):
            trace_arrival_slots(5, ())
        with pytest.raises(ReproError):
            trace_arrival_slots(5, (3, -1))


class TestSessionSpec:
    def test_default_label(self):
        assert SessionSpec().label == "multi-tree/N31/d3"
        assert SessionSpec(label="gold").label == "gold"

    def test_gossip_rejected(self):
        with pytest.raises(ReproError):
            SessionSpec(scheme="gossip")

    def test_costs_without_repair(self):
        spec = SessionSpec(num_nodes=31, degree=3)
        assert spec.slack_factor == 1.0
        assert spec.fanout_cost() == 3.0
        assert spec.fanout_cost(2) == 2.0
        assert spec.backbone_cost() == 31.0

    def test_repair_provisioning_inflates_costs(self):
        spec = SessionSpec(num_nodes=20, degree=4, repair_epsilon=0.25)
        # ε=0.25 -> period 4 -> slack factor 4/3.
        assert spec.slack_factor == pytest.approx(4 / 3)
        assert spec.fanout_cost() == pytest.approx(4 * 4 / 3)
        assert spec.backbone_cost() == pytest.approx(20 * 4 / 3)

    def test_with_degree_relabels(self):
        degraded = SessionSpec(num_nodes=31, degree=4).with_degree(2)
        assert degraded.degree == 2
        assert degraded.label == "multi-tree/N31/d2"

    def test_validation(self):
        with pytest.raises(ReproError):
            SessionSpec(num_nodes=0)
        with pytest.raises(ReproError):
            SessionSpec(drop_rate=1.5)
        with pytest.raises(ReproError):
            SessionSpec(weight=0)


class TestCapacityModel:
    def test_fits_boundaries(self):
        cap = CapacityModel(source_fanout=10.0, backbone=100.0)
        assert cap.fits(7.0, 0.0, 3.0, 50.0)
        assert not cap.fits(8.0, 0.0, 3.0, 50.0)
        assert not cap.fits(0.0, 70.0, 3.0, 50.0)

    def test_budgets_must_be_positive(self):
        with pytest.raises(ReproError):
            CapacityModel(source_fanout=0)
        with pytest.raises(ReproError):
            CapacityModel(backbone=-1)


class TestSessionTable:
    FLEET = FleetSpec(
        sessions=(SessionSpec(num_nodes=15), SessionSpec(scheme="chain", num_nodes=8)),
        num_sessions=40, churn_rate=0.5, seed=4,
    )

    def test_columns(self):
        table = self.FLEET.resolve()
        assert isinstance(table, SessionTable)
        assert table.kinds == self.FLEET.sessions
        assert table.session_id.tolist() == list(range(40))
        for name in ("session_id", "kind", "arrival_slot", "seed"):
            assert getattr(table, name).dtype == np.int64
        churned = ~np.isnan(table.leave_fraction)
        assert 0 < churned.sum() < 40

    def test_rows_are_built_on_access(self):
        table = self.FLEET.resolve()
        rows = list(table)
        assert len(rows) == len(table) == 40
        assert all(isinstance(row, ResolvedSession) for row in rows)
        assert table[7] == rows[7]
        assert table[-1] == rows[-1] == table[np.int64(39)]
        assert rows[7].spec is self.FLEET.sessions[int(table.kind[7])]
        assert all(
            (row.leave_fraction is None) == np.isnan(fraction)
            for row, fraction in zip(rows, table.leave_fraction)
        )
        with pytest.raises(IndexError):
            table[40]

    def test_slices_are_tables(self):
        table = self.FLEET.resolve()
        part = table[10:20]
        assert isinstance(part, SessionTable)
        assert list(part) == list(table)[10:20]
        assert part == table[10:20]
        assert part != table[11:21]
        assert table[10:20] != list(table)[10:20]  # a table equals tables only


class TestFleetSpec:
    def test_resolve_is_deterministic(self):
        fleet = FleetSpec(num_sessions=30, churn_rate=0.3, seed=11)
        assert fleet.resolve() == fleet.resolve()
        assert fleet.resolve() != FleetSpec(
            num_sessions=30, churn_rate=0.3, seed=12
        ).resolve()

    def test_resolve_shape(self):
        kinds = (
            SessionSpec(num_nodes=15, weight=3.0),
            SessionSpec(scheme="chain", num_nodes=8, weight=1.0),
        )
        fleet = FleetSpec(sessions=kinds, num_sessions=200, seed=0)
        resolved = fleet.resolve()
        assert len(resolved) == 200
        assert [s.session_id for s in resolved] == list(range(200))
        arrivals = [s.arrival_slot for s in resolved]
        assert arrivals == sorted(arrivals)
        # Weighted kind mix: the 3x kind should dominate.
        heavy = sum(1 for s in resolved if s.spec is kinds[0])
        assert heavy > 100

    def test_churn_rate_marks_leavers(self):
        resolved = FleetSpec(num_sessions=100, churn_rate=0.4, seed=5).resolve()
        leavers = [s for s in resolved if s.leave_fraction is not None]
        assert 20 < len(leavers) < 60
        assert all(0.5 <= s.leave_fraction <= 0.95 for s in leavers)
        assert all(
            s.leave_fraction is None
            for s in FleetSpec(num_sessions=50).resolve()
        )

    def test_trace_arrivals(self):
        fleet = FleetSpec(
            num_sessions=4, arrival="trace", arrival_slots=(1, 4, 9)
        )
        assert [s.arrival_slot for s in fleet.resolve()] == [1, 4, 9, 11]

    @pytest.mark.parametrize(
        ("slots", "index", "value"),
        [((0, 2.7, 5), 1, "2.7"), ((0, True, 5), 1, "True"),
         (("0", "3"), 0, "'0'"), ((0, math.nan), 1, "nan"), ((0, None), 1, "None")],
        ids=["float", "bool", "str", "nan", "none"],
    )
    def test_malformed_trace_entries_are_named(self, slots, index, value):
        # These used to resolve (truncated, as 1, parsed) or raise a raw
        # ValueError or TypeError.
        with pytest.raises(ReproError) as info:
            FleetSpec(arrival="trace", arrival_slots=slots, num_sessions=3)
        assert str(info.value) == (
            f"FleetSpec.arrival_slots[{index}] must be an int, got {value}"
        )
        with pytest.raises(ReproError, match=rf"trace\[{index}\] must be an int"):
            trace_arrival_slots(3, slots)

    def test_describe_names_the_mix(self):
        text = FleetSpec(num_sessions=7, policy="degrade").describe()
        assert "7 sessions" in text
        assert "degrade" in text
        assert "multi-tree/N31/d3" in text

    def test_validation(self):
        with pytest.raises(ReproError):
            FleetSpec(sessions=())
        with pytest.raises(ReproError):
            FleetSpec(arrival="flash")
        with pytest.raises(ReproError):
            FleetSpec(arrival="trace")  # no slots given
        with pytest.raises(ReproError):
            FleetSpec(policy="drop")
        with pytest.raises(ReproError):
            FleetSpec(churn_rate=2.0)
        with pytest.raises(ReproError):
            FleetSpec(min_degree=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True])
    def test_bad_seed_rejected_at_construction(self, seed):
        with pytest.raises(ReproError, match=re.escape(f"got {seed!r}")):
            FleetSpec(seed=seed)

    def test_convergence_takes_a_criterion(self):
        assert FleetSpec(convergence=ConvergenceCriterion()).convergence is not None
        with pytest.raises(ReproError, match="ConvergenceCriterion"):
            FleetSpec(convergence=True)

    @pytest.mark.parametrize(
        "field", [{"execution": "scalar"}, {"run_until_converged": True}]
    )
    def test_removed_fields_are_gone(self, field):
        with pytest.raises(TypeError):
            FleetSpec(**field)

    def test_constant_vocabularies(self):
        assert ARRIVAL_PROCESSES == ("poisson", "uniform", "trace")
        assert ADMISSION_POLICIES == ("reject", "queue", "degrade")


NAN = float("nan")
INF = float("inf")


#: ``(class, bad keyword arguments, text the error must name)``.
BAD_FIELDS = [
    (FleetSpec, {"arrival_rate": NAN}, "FleetSpec.arrival_rate"),
    (FleetSpec, {"churn_rate": NAN}, "FleetSpec.churn_rate"),
    (FleetSpec, {"num_sessions": 1.5}, "FleetSpec.num_sessions"),
    (FleetSpec, {"num_sessions": True}, "FleetSpec.num_sessions"),
    (FleetSpec, {"max_queue_slots": 2.0}, "FleetSpec.max_queue_slots"),
    (FleetSpec, {"arrival_rate": 0.0}, "arrival_rate"),
    (FleetSpec, {"sessions": ({"scheme": "chain"},)}, "SessionSpec"),
    (SessionSpec, {"weight": NAN}, "SessionSpec.weight"),
    (SessionSpec, {"weight": INF}, "weight"),
    (SessionSpec, {"drop_rate": NAN}, "SessionSpec.drop_rate"),
    (SessionSpec, {"num_nodes": 31.0}, "SessionSpec.num_nodes"),
    (SessionSpec, {"degree": True}, "SessionSpec.degree"),
    (SessionSpec, {"scheme": "hypercube", "degree": -1}, "SessionSpec.degree"),
    (CapacityModel, {"source_fanout": NAN}, "CapacityModel.source_fanout"),
    (CapacityModel, {"backbone": NAN}, "CapacityModel.backbone"),
]


class TestSpecBoundary:
    """Malformed specs fail at construction with a typed, named error."""

    @pytest.mark.parametrize(
        ("cls", "kwargs", "names"), BAD_FIELDS,
        ids=[f"{cls.__name__}-{kwargs}" for cls, kwargs, _ in BAD_FIELDS],
    )
    def test_bad_field_raises_repro_error_naming_it(self, cls, kwargs, names):
        with pytest.raises(ReproError, match=re.escape(names)):
            cls(**kwargs)

    def test_nan_error_shows_the_value(self):
        with pytest.raises(ReproError, match="got nan"):
            FleetSpec(arrival_rate=NAN)

    def test_unlimited_budgets_still_run(self):
        spec = FleetSpec(
            num_sessions=5, capacity=CapacityModel(source_fanout=INF, backbone=INF)
        )
        report = FleetRunner(policy=ExecutorPolicy(mode="serial"),
                             registry=MetricsRegistry()).run(spec).report
        assert report.admitted == 5


#: Values the spec boundary has to type: NaN, infinities, bools, floats
#: for ints, zero and negatives.
ODD_VALUES = (NAN, INF, -INF, True, False, -1, 0, 2.5, 3.0)

_SESSION = st.fixed_dictionaries({
    "scheme": st.sampled_from(["multi-tree", "hypercube", "single-tree", "chain"]),
    "num_nodes": st.integers(min_value=1, max_value=63),
    "degree": st.integers(min_value=1, max_value=4),
    "num_packets": st.integers(min_value=1, max_value=8),
    "drop_rate": st.floats(min_value=0, max_value=0.3),
    "weight": st.floats(min_value=0.1, max_value=5),
})
_FLEET = st.fixed_dictionaries({
    "num_sessions": st.integers(min_value=1, max_value=50),
    "arrival": st.sampled_from(["poisson", "uniform"]),
    "arrival_rate": st.floats(min_value=0.1, max_value=16),
    "churn_rate": st.floats(min_value=0, max_value=1),
    "max_queue_slots": st.integers(min_value=0, max_value=64),
    "min_degree": st.integers(min_value=2, max_value=3),
    "policy": st.sampled_from(["reject", "queue", "degrade"]),
    "aggregation": st.sampled_from(["exact", "sketch"]),
})
_CAPACITY = st.fixed_dictionaries({
    "source_fanout": st.floats(min_value=4, max_value=100),
    "backbone": st.floats(min_value=64, max_value=1e4),
})


class TestSpecBoundaryProperty:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_runs_or_raises_repro_error(self, data):
        kinds = data.draw(st.lists(_SESSION, min_size=1, max_size=3), label="kinds")
        fleet = data.draw(_FLEET, label="fleet")
        capacity = data.draw(_CAPACITY, label="capacity")
        # Corrupt up to two numeric fields anywhere in the spec.
        numeric = [
            (fields, key) for fields in (*kinds, fleet, capacity)
            for key, value in fields.items() if not isinstance(value, str)
        ]
        picks = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(numeric) - 1), max_size=2,
        ), label="corrupted")
        for pick in picks:
            fields, key = numeric[pick]
            fields[key] = data.draw(st.sampled_from(ODD_VALUES), label=key)
        try:
            spec = FleetSpec(
                sessions=tuple(SessionSpec(**kind) for kind in kinds),
                capacity=CapacityModel(**capacity),
                **fleet,
            )
            result = FleetRunner(
                policy=ExecutorPolicy(mode="serial"), registry=MetricsRegistry()
            ).run(spec)
        except ReproError:
            return
        report = result.report
        assert report.admitted + report.degraded + report.rejected == spec.num_sessions
        assert not math.isnan(report.rebuffer_mean)
