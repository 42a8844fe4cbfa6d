"""Removed names stay removed: one table row per check, for every major version.

A row is ``(removed_in, kind, target, expected)``, and its test id is
``<removed_in>-<target>``.  The four kinds:

* ``import``: ``target`` is a dotted ``M.N``. ``M`` imports (so a misspelt
  path cannot pass), and ``from M import N`` raises ``ImportError``; ``N``
  may be an attribute or a submodule.
* ``absent``: ``target`` is ``owner:name``.  ``name`` is not an attribute
  of ``owner`` or, when the owner is a container (``__all__``,
  ``__slots__``, dataclass fields, a metric table, a directory listing),
  not in it.  ``owner`` is a dotted path resolved by import and
  ``getattr``, where a part ending in ``()`` is called with no arguments,
  or what the row's ``call`` returns.
* ``raises``: the row's ``call`` raises ``expected``, an exception class or
  ``(class, text)``.  A replacement check returns ``expected`` instead.
* ``cli``: ``repro <target>`` exits 2 in ``repro.cli.main``, and its
  stderr holds ``expected`` when one is given.

A major version that removes a name adds rows here; docs/API.md lists the
removals and their replacements.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import warnings
from collections.abc import Callable
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import pytest
from numpy.random import SeedSequence

import repro
from repro.check import build_project_model, check_config, lint_project, lint_source
from repro.check.model import read_module
from repro.cli import main
from repro.control import ChurnRepairController, ControlPlane, ControlPolicy
from repro.control.scenario import offered_p99, ramp_fleet
from repro.core.engine import simulate
from repro.core.errors import ReproError
from repro.exec import (
    ExecutorPolicy,
    ScheduleCache,
    bernoulli_mask,
    bernoulli_masks,
    compile_schedule,
    replay_batch,
    spawn_seeds,
)
from repro.exec.batch import BatchMetrics
from repro.experiments import ExperimentSpec
from repro.obs import (
    ConvergenceDetector,
    EventTracer,
    Instrumentation,
    MetricsRegistry,
    TimeSeries,
    pooled_percentile,
    value_at_rank,
)
from repro.obs.convergence import ConvergenceCriterion
from repro.service import (
    CapacityModel,
    DecisionTable,
    FleetAggregator,
    FleetRunner,
    FleetSpec,
    FleetTelemetry,
    SessionColumns,
    SessionSLO,
    SessionSLOTable,
    SessionSpec,
    SessionTable,
    score_batch_sessions,
)
from repro.service import runner as runner_module

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("import", "absent", "raises", "cli")


class Row(NamedTuple):
    removed_in: str
    kind: str
    target: str
    expected: Any = None
    call: Callable[[], Any] | None = None

    def __str__(self) -> str:
        return f"{self.removed_in}-{self.target}"


def gone(version: str, *paths: str) -> list[Row]:
    """``from M import N`` raises ``ImportError`` for each dotted ``M.N``."""
    return [Row(version, "import", path, ImportError) for path in paths]


def absent(version: str, owner: str, *names: str, of: Callable[[], Any] | None = None) -> list[Row]:
    """Each of ``names`` is gone from ``owner`` (resolved, or ``of()``)."""
    return [Row(version, "absent", f"{owner}:{name}", None, of) for name in names]


def raises(version: str, target: str, call: Callable[[], Any], expected: Any) -> Row:
    return Row(version, "raises", target, expected, call)


def kept(version: str, *paths: str) -> list[Row]:
    """Each replacement's dotted path still resolves."""
    return [raises(version, f"{path} resolves", functools.partial(_resolves, path), True)
            for path in paths]


def cli(version: str, argv: str, stderr: str | None = None) -> Row:
    return Row(version, "cli", argv, stderr)


def _resolve(path: str) -> Any:
    """The object a dotted ``path`` names: its longest importable module
    prefix, then attributes; a part ending in ``()`` is called."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    for part in parts[cut:]:
        owner = getattr(owner, part.removesuffix("()"))
        if part.endswith("()"):
            owner = owner()
    return owner


def _resolves(path: str) -> bool:
    _resolve(path)
    return True


def _listdir(relative: str) -> set[str]:
    return {entry.name for entry in (ROOT / relative).iterdir()}


def _star_namespace() -> dict:
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - the star import is the check
    return namespace


def _engine_simulate_warns_nothing() -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        simulate(repro.MultiTreeProtocol(7, 2), 10)
    return True


@functools.cache
def _batch() -> BatchMetrics:
    return replay_batch(
        compile_schedule("multi-tree", 15, 2, num_packets=4), [1, 2], 0.1,
        num_packets=4, keep_node_columns=True,
    )


def _kept_slo() -> SessionSLO:
    aggregator = FleetAggregator()
    aggregator.add_sessions(
        score_batch_sessions(_batch()), session_ids=[0, 1], labels=[0, 0], statuses=[0, 0],
    )
    aggregator.add_decisions(
        DecisionTable([0, 1], [0, 0], [0, 0], [0, 0], [0, 0], [2, 2], [4, 4], [0, 0])
    )
    (slo, _) = aggregator.report(labels=["k"]).sessions
    return slo


@functools.cache
def _abr_fleet() -> tuple[Any, dict]:
    """A lossy + ABR fleet run and its registry snapshot."""
    registry = MetricsRegistry()
    result = FleetRunner(policy=ExecutorPolicy(mode="serial"), registry=registry).run(FleetSpec(
        sessions=(SessionSpec(num_nodes=15, num_packets=6, drop_rate=0.05),
                  SessionSpec(num_nodes=15, num_packets=6, abr_profile="onoff")),
        num_sessions=40,
        capacity=CapacityModel(source_fanout=1e6, backbone=1e6),
        seed=3,
    ))
    return result, registry.snapshot()


def _counters(name: str, label: str) -> dict:
    return {row["labels"][label]: row["value"]
            for row in _abr_fleet()[1]["counters"] if row["name"] == name}


def _folded_once() -> bool:
    result, _ = _abr_fleet()
    report = result.report
    return report.startup_p99 >= report.startup_p50 and report.rebuffer_max >= 0


@functools.cache
def _unbound_fleet() -> tuple[FleetSpec, Any]:
    fleet = FleetSpec(num_sessions=50, capacity=CapacityModel(source_fanout=1e9, backbone=1e9))
    return fleet, FleetRunner(policy=ExecutorPolicy(mode="serial")).run(fleet)


@functools.cache
def _spied_units() -> tuple[list, Any]:
    """Every ``(unit, columns)`` pair ``fleet_unit_task`` saw in a churned run."""
    seen = []
    original = runner_module.fleet_unit_task

    def spy(unit):
        columns = original(unit)
        seen.append((unit, columns))
        return columns

    runner_module.fleet_unit_task = spy
    try:
        result = FleetRunner(policy=ExecutorPolicy(mode="serial")).run(FleetSpec(
            sessions=(SessionSpec(num_nodes=15, degree=3, num_packets=6, drop_rate=0.05),),
            num_sessions=40, churn_rate=0.3, seed=3,
        ))
    finally:
        runner_module.fleet_unit_task = original
    return seen, result


def _window_keys() -> set:
    series = TimeSeries(4)
    series.count("fleet.admitted", 0)
    series.observe("fleet.goodput", 0, 0.5)
    return set(series.to_dict()["windows"]["0"])


@functools.cache
def _seed_schedule():
    return compile_schedule("multi-tree", 15, 2, num_packets=8)


@functools.cache
def _ramp_runs() -> tuple[Any, Any]:
    """The queue ramp's exact run and its sketch-aggregation twin."""
    fleet = ramp_fleet("queue", scale=0.2, seed=0)
    runner = FleetRunner(policy=ExecutorPolicy(mode="serial"))
    return runner.run(fleet), runner.run(dataclasses.replace(fleet, aggregation="sketch"))


def _replay_span_attrs() -> set[str]:
    telemetry = FleetTelemetry()
    FleetRunner(policy=ExecutorPolicy(mode="serial"), telemetry=telemetry).run(
        FleetSpec(sessions=(SessionSpec(num_nodes=7, num_packets=4),), num_sessions=3)
    )
    return {key for span in telemetry.spans.finished if span.name == "session.replay"
            for key in span.attrs}


ROWS: list[Row] = [
    # v2.0.0: the v1 deprecation wrappers
    *absent("v2.0.0", "repro", "simulate", "run_repair_experiment"),
    *absent("v2.0.0", "repro.__all__", "simulate"),
    *absent("v2.0.0", "from repro import *", "simulate", of=_star_namespace),
    *gone("v2.0.0", "repro.repair.run_repair_experiment", "repro.trees.live.run_churn_experiment",
          "repro.workloads.parallel_sweep"),
    *kept("v2.0.0", "repro.replay_batch", "repro.spawn_seeds", "repro.exec.replay_batch",
          "repro.repair.repair_experiment", "repro.trees.live.churn_experiment",
          "repro.exec.SweepExecutor"),
    raises("v2.0.0", "repro.core.engine.simulate warns nothing",
           _engine_simulate_warns_nothing, True),
    # v3.0.0: one fleet execution path
    *gone("v3.0.0", "repro.service.fleet_session_task", "repro.service.runner.fleet_session_task",
          "repro.service.score_session", "repro.service.slo.score_session",
          "repro.service.score_session_columns", "repro.service.slo.score_session_columns",
          "repro.service.aggregate_fleet", "repro.service.slo.aggregate_fleet",
          "repro.obs.replay_arrivals", "repro.obs.events.replay_arrivals"),
    *absent("v3.0.0", "repro.service.FleetAggregator", "add_session", "num_sessions_aggregated",
            "startup_sketch"),
    *absent("v3.0.0", "repro.service.FleetRunner", "_run_controlled"),
    raises("v3.0.0", "FleetSpec(execution=)", lambda: FleetSpec(execution="scalar"), TypeError),
    raises("v3.0.0", "FleetSpec(run_until_converged=)",
           lambda: FleetSpec(run_until_converged=True), TypeError),
    *kept("v3.0.0", "repro.obs.arrivals_from_events", "repro.obs.convergence.ConvergenceCriterion",
          "repro.service.score_batch_sessions", "repro.service.runner.fleet_unit_task"),
    raises("v3.0.0", "FleetSpec(convergence=ConvergenceCriterion())",
           lambda: FleetSpec(convergence=ConvergenceCriterion()).convergence is not None, True),
    # v4.0.0: one lint pipeline
    *gone("v4.0.0", "repro.check.analyzers.taint"),
    *absent("v4.0.0", "repro.check.ALL_RULES", "REP008"),
    *absent("v4.0.0", "repro.check.ProjectLintReport", "stats"),
    *absent("v4.0.0", "repro.check.model.Suppressions", "filter"),
    *absent("v4.0.0", "benchmarks/results", "lint_stats.json",
            of=functools.partial(_listdir, "benchmarks/results")),
    raises("v4.0.0", "lint_project(analyzers=)",
           lambda: lint_project(["src"], analyzers=False), TypeError),
    raises("v4.0.0", "lint_source(scope_path=)",
           lambda: lint_source("X = 1\n", "x.py", scope_path="y.py"), TypeError),
    cli("v4.0.0", "lint src --stats"),
    cli("v4.0.0", "lint src --no-analyzers"),
    # v5.0.0: one timing mechanism
    *gone("v5.0.0", "repro.obs.profile", "repro.PhaseProfiler", "repro.obs.PhaseProfiler",
          "repro.obs.PhaseStats", "repro.obs.format_profile_table",
          "repro.reporting.append_bench_history", "repro.reporting.ledger.append_bench_history",
          "repro.reporting.bench_history_records", "repro.reporting.ledger.bench_history_records",
          "repro.reporting.ledger.DEFAULT_REGRESSION_THRESHOLD", "repro.exec.replay_sweep_task",
          "repro.exec.executor.replay_sweep_task", "repro.exec.replay_point",
          "repro.exec.replay.replay_point"),
    *absent("v5.0.0", "repro.obs.Instrumentation()", "profiler"),
    *absent("v5.0.0", "repro.exec.executor.SweepExecutor()", "last_shards"),
    *absent("v5.0.0", "repro.service.FleetRunResult.__dataclass_fields__", "shard_timings"),
    *absent("v5.0.0", "repro.obs.names.METRIC_NAMES", "sweep.points", "sweep.replayed_tx",
            "sweep.max_delay"),
    *absent("v5.0.0", "benchmarks/results", "bench_history.jsonl",
            of=functools.partial(_listdir, "benchmarks/results")),
    *kept("v5.0.0", "repro.obs.SpanTracer", "repro.obs.Timer", "repro.obs.span_rows",
          "repro.obs.span_scope", "repro.exec.replay_batch_task"),
    raises("v5.0.0", "Instrumentation.collecting(profile=True) keeps spans",
           lambda: Instrumentation.collecting(profile=True).spans is not None, True),
    cli("v5.0.0", "report"),
    # v6.0.0: columnar SLO path
    raises("v6.0.0", "score_batch_sessions returns SessionColumns",
           lambda: isinstance(score_batch_sessions(_batch()), SessionColumns), True),
    raises("v6.0.0", "FleetAggregator.add_sessions([SessionSLO])",
           lambda: FleetAggregator().add_sessions([_kept_slo()]), ReproError),
    *absent("v6.0.0", "repro.service.FleetTelemetry", "record_session"),
    *kept("v6.0.0", "repro.service.FleetTelemetry.record_sessions"),
    # v7.0.0: one lint gate, one post-hoc checker
    *kept("v7.0.0", "repro.check.check_trace"),
    *gone("v7.0.0", "repro.check.load_baseline", "repro.check.save_baseline",
          "repro.check.DEFAULT_BASELINE_PATH", "repro.check.project.DEFAULT_BASELINE_PATH",
          "repro.check.project.baseline_key",
          "repro.check.project.BASELINE_VERSION", "repro.check.model.MODEL_CACHE_VERSION",
          "repro.check.analyzers.process_safety.worker_roots",
          "repro.check.analyzers.process_safety.reachable_from_workers",
          "repro.core.audit_trace", "repro.core.TraceAudit", "repro.core.trace_checks"),
    *(raises("v7.0.0", f"ExperimentSpec({name}=)",
             functools.partial(ExperimentSpec, **{name: False}), TypeError)
      for name in ("compiled", "cache", "verify", "validate", "record_transmissions")),
    raises("v7.0.0", "lint_project(baseline_path=)",
           lambda: lint_project(["src"], baseline_path="x.json"), TypeError),
    raises("v7.0.0", "lint_project(model_cache=)",
           lambda: lint_project(["src"], model_cache="x.pickle"), TypeError),
    raises("v7.0.0", "build_project_model(cache_path=)",
           lambda: build_project_model(["src"], cache_path="x.pickle"), TypeError),
    raises("v7.0.0", "read_module(path, source, sha256)",
           lambda: read_module("x.py", "X = 1\n", "0" * 64), TypeError),
    *absent("v7.0.0", "repro.check.ProjectLintReport", "baselined"),
    *absent("v7.0.0", "repro.check.model.ModuleInfo.__dataclass_fields__", "sha256"),
    *absent("v7.0.0", "repro.check.model.ProjectModel", "resolve_function"),
    *absent("v7.0.0", "repository root", ".repro-lint-baseline.json",
            of=functools.partial(_listdir, ".")),
    cli("v7.0.0", "lint src --baseline x.json"),
    cli("v7.0.0", "lint src --write-baseline"),
    cli("v7.0.0", "lint src --model-cache x.pickle"),
    # v8.0.0: one aggregation per run
    *absent("v8.0.0", "repro.obs.registry.Histogram", "observe_many"),
    *absent("v8.0.0", "fleet run histograms", "fleet.startup_delay", "fleet.rebuffer_ratio",
            of=lambda: {row["name"] for row in _abr_fleet()[1]["histograms"]}),
    raises("v8.0.0", "the report carries the startup and rebuffer fields", _folded_once, True),
    raises("v8.0.0", "fleet.sessions_replayed counts the executed sessions",
           lambda: sum(_counters("fleet.sessions_replayed", "label").values())
           == _abr_fleet()[0].executor_info["tasks"], True),
    raises("v8.0.0", "fleet.abr_sessions equals report.qoe_tiers",
           lambda: _counters("fleet.abr_sessions", "tier")
           == dict(_abr_fleet()[0].report.qoe_tiers), True),
    # v9.0.0: a columnar fleet front end
    *absent("v9.0.0", "repro.service.FleetAggregator", "add_decision"),
    *absent("v9.0.0", "repro.service.FleetTelemetry", "record_decision"),
    raises("v9.0.0", "FleetSpec.resolve() is a SessionTable",
           lambda: isinstance(_unbound_fleet()[0].resolve(), SessionTable), True),
    raises("v9.0.0", "FleetRunResult.sessions is a SessionTable",
           lambda: isinstance(_unbound_fleet()[1].sessions, SessionTable), True),
    raises("v9.0.0", "FleetRunResult.decisions is a DecisionTable",
           lambda: isinstance(_unbound_fleet()[1].decisions, DecisionTable), True),
    raises("v9.0.0", "FleetRunResult.decisions has a row per session",
           lambda: len(_unbound_fleet()[1].decisions), 50),
    # v10.0.0: one schedule representation
    *(row for name in ("sends", "recvs", "deliveries", "first_arrival", "arrivals_by_node",
                       "iter_flat")
      for owner in ("repro.check.ScheduleFacts.__slots__", "repro.check.ScheduleFacts")
      for row in absent("v10.0.0", owner, name)),
    *absent("v10.0.0", "repro.exec.CompiledSchedule", "iter_transmissions"),
    *absent("v10.0.0", "repro.obs.MetricsRegistry", "sketch"),
    *absent("v10.0.0", "repro.obs.MetricsRegistry().snapshot()", "sketches"),
    *gone("v10.0.0", "repro.obs.Sketch"),
    raises("v10.0.0", "CompiledSchedule.columns() has a row per transmission",
           lambda: compile_schedule("chain", 5, num_packets=4).columns().num_rows, 5),
    raises("v10.0.0", "check_config on column facts",
           lambda: check_config("chain", 5, num_packets=4).ok, True),
    # v11.0.0: one schedule store
    raises("v11.0.0", "ScheduleCache(disk=True)", lambda: ScheduleCache(disk=True),
           (ReproError, "removed in v11.0.0")),
    raises("v11.0.0", "ScheduleCache(disk_dir=)", lambda: ScheduleCache(disk_dir=1), TypeError),
    raises("v11.0.0", "ScheduleCache(max_disk_bytes=)",
           lambda: ScheduleCache(max_disk_bytes=1), TypeError),
    *absent("v11.0.0", "repro.exec.ScheduleCache", "get_with_layer", "disk_dir"),
    *absent("v11.0.0", "repro.exec.ScheduleCache()", "get_with_layer", "disk_dir"),
    *absent("v11.0.0", "repro.control.EpochObservation.__dataclass_fields__", "cumulative_p99",
            "admitted", "degraded", "rejected"),
    *absent("v11.0.0", "repro.obs.names.METRIC_NAMES", "schedule_cache.evict"),
    # v12.0.0: exact quantiles only
    *gone("v12.0.0", "repro.obs.sketch", "repro.workloads.parallel",
          "repro.workloads.multi_tree_cell", "repro.workloads.cascade_cell",
          "repro.workloads.default_workers"),
    *(row for name in ("QuantileSketch", "DEFAULT_RELATIVE_ERROR", "DEFAULT_EXACT_LIMIT")
      for package in ("repro", "repro.obs")
      for row in absent("v12.0.0", package, name)),
    raises("v12.0.0", "TimeSeries(relative_error=)",
           lambda: TimeSeries(8, relative_error=0.01), TypeError),
    raises("v12.0.0", "FleetTelemetry(relative_error=)",
           lambda: FleetTelemetry(relative_error=0.01), TypeError),
    raises("v12.0.0", "FleetAggregator(relative_error=)",
           lambda: FleetAggregator(relative_error=0.01), TypeError),
    raises("v12.0.0", "FleetAggregator(exact_limit=)",
           lambda: FleetAggregator(exact_limit=256), TypeError),
    raises("v12.0.0", "ConvergenceDetector(relative_error=)",
           lambda: ConvergenceDetector(relative_error=0.01), TypeError),
    raises("v12.0.0", "ControlPlane(cache=)",
           lambda: ControlPlane(ControlPolicy(), cache=None), TypeError),
    raises("v12.0.0", "ChurnRepairController.decide(recompile=)",
           lambda: ChurnRepairController(ControlPolicy()).decide(
               None, {}, degrees={}, recompile=None), TypeError),
    *absent("v12.0.0", "repro.service.FleetAggregator", "relative_error"),
    *absent("v12.0.0", "repro.obs.TimeSeries", "relative_error"),
    *absent("v12.0.0", "repro.obs.ConvergenceDetector", "merge"),
    *absent("v12.0.0", "repro.control.ControlPlane", "cache", "recompiled_tokens"),
    *absent("v12.0.0", "repro.obs.names.METRIC_NAMES", "control.recompiled_tokens",
            "sweep.cells", "sweep.delay"),
    cli("v12.0.0", "fleet --sketch-error 0.1", "unrecognized arguments"),
    cli("v12.0.0", "figure4 --parallel 2", "unrecognized arguments"),
    raises("v12.0.0", "pooled_percentile over an exact table",
           lambda: pooled_percentile({2: 3, 7: 1}, 99), 7),
    raises("v12.0.0", "value_at_rank over an exact table",
           lambda: value_at_rank({2: 3, 7: 1}, 3), 2),
    # v14.0.0: an order-free fleet fold
    *absent("v14.0.0", "repro.service.SessionColumns", "__getitem__"),
    *absent("v14.0.0", "repro.obs.TimeSeries", "gauge", "last"),
    *absent("v14.0.0", "repro.obs.WindowStats.__slots__", "gauges"),
    raises("v14.0.0", "a TimeSeries window holds counters and sketches",
           _window_keys, {"counters", "sketches"}),
    raises("v14.0.0", "fleet_unit_task takes one unit",
           lambda: list(inspect.signature(runner_module.fleet_unit_task).parameters), ["unit"]),
    raises("v14.0.0", "a fleet unit is a token and six members",
           lambda: all(isinstance(token, str) and len(members) == 6
                       for (token, members), _ in _spied_units()[0]), True),
    raises("v14.0.0", "a fleet unit's first five members are NumPy columns",
           lambda: all(isinstance(column, np.ndarray)
                       for (_, members), _ in _spied_units()[0] for column in members[:5]), True),
    raises("v14.0.0", "fleet_unit_task returns SessionColumns",
           lambda: all(isinstance(columns, SessionColumns) for _, columns in _spied_units()[0]),
           True),
    raises("v14.0.0", "a unit's SessionColumns has a row per member",
           lambda: all(len(columns) == len(members[0])
                       for (_, members), columns in _spied_units()[0]), True),
    raises("v14.0.0", "the units replay every executed task",
           lambda: sum(len(columns) for _, columns in _spied_units()[0])
           == _spied_units()[1].executor_info["tasks"], True),
    # v15.0.0: one seed type
    raises("v15.0.0", "replay_batch(SeedSequence seeds) lossy",
           lambda: replay_batch(_seed_schedule(), [SeedSequence(1)], 0.1, num_packets=4),
           (ReproError, "SeedSequence")),
    raises("v15.0.0", "replay_batch(SeedSequence seeds) loss-free",
           lambda: replay_batch(_seed_schedule(), [SeedSequence(1)], 0.0, num_packets=4),
           (ReproError, "SeedSequence")),
    raises("v15.0.0", "bernoulli_mask(SeedSequence seed)",
           lambda: bernoulli_mask(_seed_schedule(), 0.1, SeedSequence(1)),
           (ReproError, "SeedSequence")),
    raises("v15.0.0", "bernoulli_masks(SeedSequence seeds)",
           lambda: bernoulli_masks(_seed_schedule(), [0.1], [SeedSequence(1)]),
           (ReproError, "SeedSequence")),
    *absent("v15.0.0", "repro.exec.batch", "Seed"),
    raises("v15.0.0", "ExecutorPolicy(chunksize=)", lambda: ExecutorPolicy(chunksize=1), TypeError),
    raises("v15.0.0", "EventTracer(sample_rate=)", lambda: EventTracer(sample_rate=0.5), TypeError),
    raises("v15.0.0", "EventTracer(seed=)", lambda: EventTracer(seed=0), TypeError),
    raises("v15.0.0", "Instrumentation.collecting(sample_rate=)",
           lambda: Instrumentation.collecting(sample_rate=0.5), TypeError),
    raises("v15.0.0", "Instrumentation.collecting(sample_seed=)",
           lambda: Instrumentation.collecting(sample_seed=0), TypeError),
    raises("v15.0.0", "replay_batch(element_budget=)",
           lambda: replay_batch(_seed_schedule(), [1], 0.1, num_packets=4, element_budget=1),
           TypeError),
    *absent("v15.0.0", "repro.obs.EventTracer()", "sampled_out"),
    *absent("v15.0.0", "repro.obs.ConvergenceDetector", "add", "count", "converged"),
    raises("v15.0.0", "spawn_seeds returns uint64",
           lambda: spawn_seeds(0, 4).dtype == np.uint64, True),
    raises("v15.0.0", "spawn_seeds child 0 is word 0 of the drop stream",
           lambda: spawn_seeds(0, 4).tolist()[0], 12035550249420947055),
    # v16.0.0: columnar session SLOs
    *absent("v16.0.0", "repro.service.SessionColumns", "slos"),
    raises("v16.0.0", "report.sessions is a SessionSLOTable",
           lambda: isinstance(_ramp_runs()[0].report.sessions, SessionSLOTable), True),
    raises("v16.0.0", "report.sessions rows are SessionSLOs",
           lambda: all(isinstance(row, SessionSLO) for row in _ramp_runs()[0].report.sessions),
           True),
    raises("v16.0.0", "offered_p99 scores an exact run",
           lambda: offered_p99(_ramp_runs()[0]) >= 0, True),
    raises("v16.0.0", "offered_p99 of a sketch run",
           lambda: offered_p99(_ramp_runs()[1]), (ReproError, "aggregation")),
    # v17.0.0: a fleet unit carries replay columns only
    *(raises("v17.0.0", f"score_batch_sessions({name}=)",
             functools.partial(score_batch_sessions, _batch(), **{name: [0, 1]}), TypeError)
      for name in ("session_ids", "labels", "statuses")),
    *absent("v17.0.0", "repro.service.SessionColumns.__dataclass_fields__", "session_ids",
            "labels", "statuses"),
    raises("v17.0.0", "BatchMetrics.seeds is a uint64 array",
           lambda: isinstance(_batch().seeds, np.ndarray) and _batch().seeds.dtype == np.uint64,
           True),
    raises("v17.0.0", "BatchMetrics.drop_rates is a float64 array",
           lambda: isinstance(_batch().drop_rates, np.ndarray)
           and _batch().drop_rates.dtype == np.float64, True),
    raises("v17.0.0", "BatchMetrics has a loss_free field",
           lambda: "loss_free" in BatchMetrics.__dataclass_fields__, True),
    raises("v17.0.0", "a lossy batch is not loss_free", lambda: _batch().loss_free is False, True),
    *absent("v17.0.0", "session.replay span attrs", "label", of=_replay_span_attrs),
]


def _rows(kind: str) -> list[Row]:
    return [row for row in ROWS if row.kind == kind]


def test_every_row_has_a_kind_and_its_own_id():
    assert {row.kind for row in ROWS} == set(KINDS)
    ids = [str(row) for row in ROWS]
    assert len(set(ids)) == len(ids), sorted(i for i in ids if ids.count(i) > 1)


@pytest.mark.parametrize("row", _rows("import"), ids=str)
def test_import(row: Row) -> None:
    module, _, name = row.target.rpartition(".")
    parent = importlib.import_module(module)  # a misspelt path fails here, not vacuously
    try:
        if not hasattr(parent, name):
            importlib.import_module(row.target)
    except ImportError:
        return
    pytest.fail(f"removed in {row.removed_in}: from {module} import {name} works again")


@pytest.mark.parametrize("row", _rows("absent"), ids=str)
def test_absent(row: Row) -> None:
    owner_path, _, name = row.target.partition(":")
    owner = row.call() if row.call is not None else _resolve(owner_path)
    if isinstance(owner, (dict, list, tuple, set, frozenset)):
        present = name in owner
    else:
        present = hasattr(owner, name)
    assert not present, f"removed in {row.removed_in}: {row.target} is back"


@pytest.mark.parametrize("row", _rows("raises"), ids=str)
def test_raises(row: Row) -> None:
    assert row.call is not None
    error, text = row.expected if isinstance(row.expected, tuple) else (row.expected, "")
    if not (isinstance(error, type) and issubclass(error, Exception)):
        value = row.call()
        assert value == row.expected, f"{row}: got {value!r}, expected {row.expected!r}"
        return
    try:
        row.call()
    except error as exc:
        assert text in str(exc), f"{row}: {error.__name__} {exc!r} does not say {text!r}"
        return
    pytest.fail(f"removed in {row.removed_in}: {row.target} no longer raises {error.__name__}")


@pytest.mark.parametrize("row", _rows("cli"), ids=str)
def test_cli(row: Row, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(ROOT)  # so the lint rows' src/ is the package's
    try:
        code = main(row.target.split())
    except SystemExit as exc:
        code = exc.code
    stderr = capsys.readouterr().err
    assert code == 2, f"removed in {row.removed_in}: repro {row.target} exited {code}, not 2"
    assert (row.expected or "") in stderr, f"{row}: stderr {stderr!r}"
