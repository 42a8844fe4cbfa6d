"""repro.service — the fleet service layer: many sessions, one infrastructure.

The paper (and every subsystem below this one) models a *single* streaming
session: one source, one receiver population, one schedule.  The service
layer is where the ROADMAP's production framing starts — thousands of
concurrent sessions sharing source fan-out and backbone capacity:

* :mod:`repro.service.spec` — the scenario model (:class:`SessionSpec` kinds,
  :class:`FleetSpec` mixes, :class:`CapacityModel` budgets, deterministic
  :meth:`FleetSpec.resolve` expansion into a columnar :class:`SessionTable`);
* :mod:`repro.service.admission` — :class:`SessionManager` with
  reject/queue/degrade policies against the capacity model, writing a
  columnar :class:`DecisionTable`;
* :mod:`repro.service.runner` — :class:`FleetRunner`, one epoch loop that
  admits arrivals and executes them as batch units across the ``exec``
  process pool while amortizing schedule compilation through the shared
  :class:`~repro.exec.cache.ScheduleCache`;
* :mod:`repro.service.slo` — per-session and fleet SLOs
  (:func:`score_batch_sessions` → :class:`SessionColumns`, :class:`SessionSLO`,
  :class:`FleetSLOReport` with exact pooled percentiles and its columnar
  :class:`SessionSLOTable` of sessions, and the streaming
  :class:`FleetAggregator`, which folds each unit into exact ``value ->
  count`` tables; :func:`pooled_percentile` is
  :func:`repro.obs.quantiles.pooled_percentile`).

Fleet-scale telemetry (``docs/TELEMETRY.md``): :class:`FleetTelemetry`
records tumbling-window time series and pipeline spans for a run;
``FleetSpec(aggregation="sketch")`` drops the per-session rows (the
percentiles stay exact); ``FleetSpec(convergence=ConvergenceCriterion())``
stops once the p99 SLO estimate's confidence interval is tight (open-loop
steady-state mode).

Entry points: ``repro.run(ExperimentSpec(kind="fleet", fleet=...))`` or the
``repro fleet`` CLI subcommand.
"""

from repro.service.admission import AdmissionDecision, DecisionTable, SessionManager
from repro.service.runner import FleetRunner, FleetRunResult, FleetTelemetry
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionColumns,
    SessionSLO,
    SessionSLOTable,
    pooled_percentile,
    score_batch_sessions,
)
from repro.service.spec import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    CapacityModel,
    FleetSpec,
    ResolvedSession,
    SessionSpec,
    SessionTable,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_PROCESSES",
    "AdmissionDecision",
    "CapacityModel",
    "DecisionTable",
    "FleetAggregator",
    "FleetRunResult",
    "FleetRunner",
    "FleetSLOReport",
    "FleetSpec",
    "FleetTelemetry",
    "ResolvedSession",
    "SessionColumns",
    "SessionManager",
    "SessionSLO",
    "SessionSLOTable",
    "SessionSpec",
    "SessionTable",
    "pooled_percentile",
    "score_batch_sessions",
]
