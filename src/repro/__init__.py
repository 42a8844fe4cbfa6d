"""repro — reproduction of *On the Tradeoff Between Playback Delay and Buffer
Space in Streaming* (Chow, Golubchik, Khuller, Yao; USC CSTR 09-904 / IPPS 2009).

The package implements, from scratch, everything the paper describes:

* :mod:`repro.core` — the slot-synchronous communication model and simulator;
* :mod:`repro.trees` — the multi-tree scheme (both constructions, the
  round-robin schedule, Theorems 2-3, churn maintenance);
* :mod:`repro.hypercube` — the hypercube scheme for special and arbitrary
  ``N`` (Propositions 1-2, Theorem 4) and the ``d``-group variant;
* :mod:`repro.cluster` — the multi-cluster backbone τ (Theorem 1);
* :mod:`repro.baselines` — the intro's chain and single-tree overlays;
* :mod:`repro.graphs` — the Two Interior-Disjoint Tree problem and its
  NP-completeness reduction from E4-Set-Splitting;
* :mod:`repro.theory` — every closed-form bound, plus degree optimization;
* :mod:`repro.repair` — the loss-repair subsystem (slack provisioning,
  NACK retransmission, XOR parity) the paper's loss-free model leaves out;
* :mod:`repro.obs` — the instrumentation layer: metrics registry,
  structured event tracing, span tracing (engine phases and the fleet
  pipeline, aggregated into per-phase self-time tables), tumbling-window
  time series, online SLO-convergence
  detection (all opt-in, zero overhead when off), and the one nearest-rank
  rule over exact ``value -> count`` tables that every fleet percentile
  reads;
* :mod:`repro.exec` — the compiled-schedule execution layer: schedule
  compiler, content-addressed cache, engine-free replay, the vectorized
  batch-replay kernel (:func:`replay_batch` — one NumPy pass scores a whole
  batch of sessions of one schedule), and the process-parallel sweep
  executor;
* :mod:`repro.experiments` — the unified experiment facade
  (:func:`run` over :class:`ExperimentSpec`);
* :mod:`repro.check` — the static verification layer: a schedule model
  checker certifying compiled artifacts against the paper's invariants and
  theorem bounds without running the engine (``repro check``,
  ``compile_schedule(verify=True)``), plus the project's determinism lint
  (``repro lint``, rules REP001-REP004);
* :mod:`repro.service` — the fleet service layer: multi-session scenarios
  (:class:`FleetSpec`), admission control against capacity budgets
  (:class:`~repro.service.SessionManager`), sharded execution
  (:class:`FleetRunner`), fleet SLO reports (:class:`FleetSLOReport` —
  exact pooled percentiles, with or without per-session rows, optionally
  run-until-converged), and the :class:`FleetTelemetry` time-series/span
  bundle (``docs/TELEMETRY.md``);
* :mod:`repro.control` — the feedback control plane: attach a
  :class:`ControlPolicy` to a :class:`FleetSpec` and per-epoch controllers
  move the admission ladder, queue bound, and per-kind tree degree from the
  observed p99 startup delay, and run the appendix tree repairs under
  churn (``repro control``, ``docs/CONTROL.md``);
* :mod:`repro.abr` — the adaptive-bitrate scenario subsystem: time-varying
  link-capacity traces (and the engine's ``capacity_hook`` attachment), a
  bitrate ladder with a buffer-aware bandwidth estimator, per-session QoE
  metrics, and the QoE-tiered delay/buffer tradeoff sweep
  (``repro abr``, :class:`ExperimentSpec(kind="abr") <ExperimentSpec>`);
* :mod:`repro.workloads` / :mod:`repro.reporting` — sweep, churn, and
  session-arrival generators plus plain-text rendering, Chrome-trace span
  export, and the append-only JSONL run ledger (:class:`RunLedger`,
  ``repro runs`` / ``repro report``).

Quickstart — one experiment, one call::

    import repro
    result = repro.run(repro.ExperimentSpec(
        scheme="multi-tree", num_nodes=100, degree=3, num_packets=32))
    print(result.row)                 # flat metrics
    print(result.provenance["cache"]) # compiled-schedule cache outcome

Sweeps fan a ``seeds × drop_rates`` grid over compiled-schedule replay —
batch-first since v2.0, one vectorized kernel call per block of seeds::

    result = repro.run(repro.ExperimentSpec(
        kind="sweep", scheme="multi-tree", num_nodes=255,
        seeds=range(8), drop_rates=(0.0, 0.01)))
    print(len(result.rows), result.provenance["executor"])

Or call the kernel directly — 100k sessions of one schedule in one pass,
one int seed each (``spawn_seeds`` derives them from a master seed)::

    schedule = repro.compile_schedule("multi-tree", 63, 3, num_packets=16)
    batch = repro.replay_batch(
        schedule, repro.spawn_seeds(0, 100_000), 0.01, num_packets=16)
    print(batch.metrics(0), batch.residual.mean())

Fleets run thousands of admission-controlled sessions over shared capacity::

    result = repro.run(repro.ExperimentSpec(kind="fleet", fleet=repro.FleetSpec(
        sessions=(repro.SessionSpec(num_nodes=31),), num_sessions=1000)))
    print(result.metrics.row())       # the fleet SLO report

Since v2.0 execution is **batch-first**: sweeps and fleets score whole
blocks of sessions per pass through the vectorized kernel
(:func:`repro.exec.replay_batch`), and the v1 legacy one-off entry points
(``run_repair_experiment``, ``run_churn_experiment``, ``parallel_sweep``,
and the top-level ``repro.simulate`` re-export) are **removed** — importing
them is an error.  The low-level pieces (protocols +
:func:`repro.core.engine.simulate`) remain public for custom experiments;
see ``docs/API.md`` for the v1 → v2 migration table.
"""

from repro.abr import (
    AbrSessionSpec,
    AbrTradeoffReport,
    BandwidthEstimator,
    BitrateLadder,
    CapacityTrace,
    QoEMetrics,
    abr_tradeoff,
)
from repro.baselines import ChainProtocol, SingleTreeProtocol
from repro.check import (
    CheckReport,
    Violation,
    check_config,
    check_schedule,
    lint_paths,
    smoke_grid,
)
from repro.cluster import ClusteredStreamingProtocol, analyze_clustered, build_supertree
from repro.control import ControlDecision, ControlPolicy
from repro.core import (
    PlaybackBuffer,
    SchemeMetrics,
    SimTrace,
    SlottedEngine,
    StreamingProtocol,
    Transmission,
    collect_metrics,
    earliest_safe_start,
)
from repro.exec import (
    BatchMetrics,
    CompiledSchedule,
    ExecutorPolicy,
    ScheduleCache,
    SweepExecutor,
    compile_schedule,
    replay_batch,
    spawn_seeds,
)
from repro.experiments import ExperimentResult, ExperimentSpec, run
from repro.hypercube import (
    GroupedHypercubeProtocol,
    HypercubeCascadeProtocol,
    HypercubeProtocol,
    analyze_cascade,
    cascade_plan,
)
from repro.obs import (
    ConvergenceCriterion,
    ConvergenceDetector,
    EventTracer,
    Instrumentation,
    MetricsRegistry,
    SpanTracer,
    TimeSeries,
)
from repro.repair import (
    ParityScheme,
    RepairRunResult,
    RetransmissionCoordinator,
    SlackPolicy,
    SlackProvisioner,
    repair_experiment,
)
from repro.reporting import RunLedger
from repro.service import (
    CapacityModel,
    FleetAggregator,
    FleetRunner,
    FleetSLOReport,
    FleetSpec,
    FleetTelemetry,
    SessionManager,
    SessionSpec,
)
from repro.theory import optimal_degree, table1
from repro.trees import DynamicForest, MultiTreeForest, MultiTreeProtocol, analyze

__version__ = "16.0.0"

__all__ = [
    "AbrSessionSpec",
    "AbrTradeoffReport",
    "BandwidthEstimator",
    "BatchMetrics",
    "BitrateLadder",
    "CapacityModel",
    "CapacityTrace",
    "ChainProtocol",
    "CheckReport",
    "ClusteredStreamingProtocol",
    "CompiledSchedule",
    "ControlDecision",
    "ControlPolicy",
    "ConvergenceCriterion",
    "ConvergenceDetector",
    "DynamicForest",
    "EventTracer",
    "ExecutorPolicy",
    "ExperimentResult",
    "ExperimentSpec",
    "FleetAggregator",
    "FleetRunner",
    "FleetSLOReport",
    "FleetSpec",
    "FleetTelemetry",
    "GroupedHypercubeProtocol",
    "HypercubeCascadeProtocol",
    "HypercubeProtocol",
    "Instrumentation",
    "MetricsRegistry",
    "MultiTreeForest",
    "MultiTreeProtocol",
    "ParityScheme",
    "PlaybackBuffer",
    "QoEMetrics",
    "RepairRunResult",
    "RetransmissionCoordinator",
    "RunLedger",
    "ScheduleCache",
    "SchemeMetrics",
    "SessionManager",
    "SessionSpec",
    "SimTrace",
    "SingleTreeProtocol",
    "SlackPolicy",
    "SlackProvisioner",
    "SlottedEngine",
    "SpanTracer",
    "StreamingProtocol",
    "SweepExecutor",
    "TimeSeries",
    "Transmission",
    "Violation",
    "__version__",
    "abr_tradeoff",
    "analyze",
    "analyze_cascade",
    "analyze_clustered",
    "build_supertree",
    "cascade_plan",
    "check_config",
    "check_schedule",
    "collect_metrics",
    "compile_schedule",
    "earliest_safe_start",
    "lint_paths",
    "optimal_degree",
    "repair_experiment",
    "replay_batch",
    "run",
    "smoke_grid",
    "spawn_seeds",
    "table1",
]
