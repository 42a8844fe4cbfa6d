"""Unified experiment facade: ``repro.run(ExperimentSpec) -> ExperimentResult``.

Every experiment family this reproduction grew — plain streaming runs
(:func:`repro.core.engine.simulate`), loss-repair tradeoffs, churn
streaming, and parameter sweeps — historically had its own entry point with
its own argument conventions.  This module collapses them behind one
declarative API:

* :class:`ExperimentSpec` — a frozen dataclass naming the scheme,
  construction, sizes, faults, repair, instrumentation policy, and executor
  policy of one experiment;
* :func:`run` — the single dispatcher.  The CLI subcommands and the library
  surface both route through it, so both take the same code path;
* :class:`ExperimentResult` — a uniform result: flat metric rows, the
  primary metrics object, timing, and provenance (including schedule-cache
  hit/miss and how the executor actually ran).

``run`` replays loss-free stream runs of a deterministic scheme through a
compiled schedule from the shared cache (:mod:`repro.exec`); since
v2.0 sweeps execute batch-first through the vectorized kernel
(:func:`repro.exec.replay_batch`), one kernel call per block of seeds per
drop rate.  The v1 legacy wrappers (``run_repair_experiment``,
``run_churn_experiment``, ``parallel_sweep``, the ``repro.simulate``
re-export) were removed in v2.0 — docs/API.md has the migration table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.engine import simulate as _engine_simulate
from repro.core.errors import ReproError, check_fields
from repro.core.metrics import collect_metrics, collect_repair_metrics
from repro.exec.cache import default_cache
from repro.exec.compiler import COMPILABLE_SCHEMES, build_protocol, compile_schedule
from repro.exec.executor import ExecutorPolicy, SweepExecutor, replay_batch_task
from repro.obs import Instrumentation, Timer

__all__ = [
    "EXPERIMENT_KINDS",
    "SCHEMES",
    "ExperimentSpec",
    "ExperimentResult",
    "build_scheme_protocol",
    "run",
]

EXPERIMENT_KINDS = ("stream", "repair", "churn", "sweep", "fleet", "abr")

#: Fields that must hold a real int (a bool or a float is a typed error).
_INT_FIELDS = (
    "num_nodes", "degree", "latency", "num_packets", "seed", "extra", "group",
    "grace", "churn_events", "abr_chunks", "abr_chunk_slots",
)

#: Every scheme a spec may name: the compilable ones plus ``gossip``.
SCHEMES = (
    "multi-tree",
    "hypercube",
    "grouped-hypercube",
    "chain",
    "single-tree",
    "gossip",
)


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """Declarative description of one experiment.

    Construction checks the fields at this boundary: a bool or non-int in
    an int field, a negative ``seed`` or ``churn_events``, NaN in a float
    field, or an unknown kind or scheme raises :class:`ReproError` naming
    the field and the value.

    Attributes:
        kind: ``stream`` (one simulated run), ``repair`` (loss-repair
            tradeoff point), ``churn`` (stream through scheduled churn),
            ``sweep`` (a ``seeds x drop_rates`` grid over one configuration),
            ``fleet`` (a multi-session service scenario with admission
            control and SLO tracking; see :mod:`repro.service`), or ``abr``
            (the delay/buffer tradeoff sweep over time-varying capacity
            profiles, bucketed by QoE tier; see :mod:`repro.abr`).
        scheme: streaming scheme.
        num_nodes / degree / construction / mode / latency: configuration of
            the scheme (construction/mode/latency apply to multi-tree).
        num_packets: measured stream prefix.
        seed: RNG seed, an int >= 0 (fault injection, gossip, churn traces).
        drop_rate: Bernoulli per-transmission drop probability.
        repair_mode / epsilon / slack_mode / extra / group / grace: repair
            experiment knobs (see :mod:`repro.repair.session`).
        churn_events: number (>= 0) of random churn events (kind ``churn``).
        lazy_churn: use the lazy repair variant.
        seeds / drop_rates: sweep grid axes (kind ``sweep``); empty tuples
            fall back to ``(seed,)`` / ``(drop_rate,)``.
        fleet: a :class:`~repro.service.FleetSpec` scenario (kind ``fleet``);
            None builds a single-kind fleet from the scalar scheme fields.
        abr_profiles / abr_startups / abr_chunks / abr_chunk_slots: the ABR
            sweep grid (kind ``abr``): capacity-trace profile names
            (:data:`repro.abr.TRACE_PROFILES`), prebuffer targets in chunks,
            and the video shape; empty tuples fall back to the subsystem
            defaults.
        executor: :class:`~repro.exec.executor.ExecutorPolicy` for sweeps.
        profile / trace_events: instrumentation policy — per-phase profiling
            and/or a JSONL event stream (ignored when an explicit
            ``instrumentation`` bundle is passed to :func:`run`).
    """

    kind: str = "stream"
    scheme: str = "multi-tree"
    num_nodes: int = 31
    degree: int = 3
    construction: str = "structured"
    mode: str = "prerecorded"
    latency: int = 1
    num_packets: int = 16
    seed: int = 0
    drop_rate: float = 0.0
    # --- repair
    repair_mode: str = "retransmit"
    epsilon: float = 0.05
    slack_mode: str = "thin"
    extra: int = 1
    group: int = 4
    grace: int | None = None
    # --- churn
    churn_events: int = 6
    lazy_churn: bool = False
    # --- sweep grid
    seeds: tuple[int, ...] = ()
    drop_rates: tuple[float, ...] = ()
    # --- fleet scenario
    fleet: object | None = None
    # --- abr sweep grid
    abr_profiles: tuple[str, ...] = ()
    abr_startups: tuple[int, ...] = ()
    abr_chunks: int = 32
    abr_chunk_slots: int = 4
    # --- execution policy
    executor: ExecutorPolicy = field(default_factory=ExecutorPolicy)
    # --- instrumentation policy
    profile: bool = False
    trace_events: str | None = None

    def __post_init__(self) -> None:
        check_fields(self, _INT_FIELDS)
        if self.kind not in EXPERIMENT_KINDS:
            raise ReproError(
                f"unknown experiment kind {self.kind!r}; choose from {EXPERIMENT_KINDS}"
            )
        if self.scheme not in SCHEMES:
            raise ReproError(
                f"unknown scheme {self.scheme!r}; choose from {SCHEMES}"
            )
        if self.num_nodes < 1:
            raise ReproError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_packets < 1:
            raise ReproError(f"num_packets must be >= 1, got {self.num_packets}")
        if self.seed < 0:
            raise ReproError(f"ExperimentSpec.seed must be >= 0, got {self.seed}")
        if self.churn_events < 0:
            raise ReproError(
                f"ExperimentSpec.churn_events must be >= 0, got {self.churn_events}"
            )
        if not 0 <= self.drop_rate <= 1:
            raise ReproError(f"drop_rate must be in [0, 1], got {self.drop_rate}")
        if self.abr_chunks < 1:
            raise ReproError(f"abr_chunks must be >= 1, got {self.abr_chunks}")
        if self.abr_chunk_slots < 1:
            raise ReproError(
                f"abr_chunk_slots must be >= 1, got {self.abr_chunk_slots}"
            )
        # Accept lists for the grid axes; store hashable tuples.
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "drop_rates", tuple(self.drop_rates))
        object.__setattr__(self, "abr_profiles", tuple(self.abr_profiles))
        object.__setattr__(self, "abr_startups", tuple(self.abr_startups))

    # ----------------------------------------------------------------- helpers
    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with ``changes`` applied (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)

    def grid(self) -> list[tuple[int, float, int]]:
        """The sweep task grid: ``(seed, drop_rate, num_packets)`` tuples."""
        seeds = self.seeds or (self.seed,)
        rates = self.drop_rates or (self.drop_rate,)
        return [(s, r, self.num_packets) for r in rates for s in seeds]


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform result of :func:`run`.

    Attributes:
        spec: the spec that produced this result.
        rows: flat, table/JSON-ready metric rows (one per run or sweep point).
        metrics: the primary metrics object of the experiment
            (:class:`~repro.core.metrics.SchemeMetrics`,
            :class:`~repro.core.metrics.RepairMetrics`, a churn report, or
            None for sweeps).
        trace: the :class:`~repro.core.engine.SimTrace` when a single engine
            run was executed (stream kind), else None.
        artifacts: experiment-family extras (e.g. the churn protocol and
            hiccup report, the repair tradeoff point).
        timing_s: wall-clock seconds spent inside :func:`run`.
        provenance: how the result was produced — scheme description,
            ``compiled`` flag, schedule-cache outcome (``memory`` /
            ``miss`` / None), executor mode/workers/fallback, package
            version.
        instrumentation: the bundle used (facade-created or caller-passed).
    """

    spec: ExperimentSpec
    rows: tuple[dict, ...]
    metrics: object | None
    trace: object | None
    artifacts: dict
    timing_s: float
    provenance: dict
    instrumentation: Instrumentation | None

    @property
    def row(self) -> dict:
        """The first (often only) metrics row."""
        if not self.rows:
            raise ReproError("experiment produced no metric rows")
        return self.rows[0]


def _instrumentation_for(spec: ExperimentSpec) -> Instrumentation | None:
    if not spec.profile and not spec.trace_events:
        return None
    return Instrumentation.collecting(
        events_path=spec.trace_events, ring_capacity=None, profile=spec.profile
    )


def _base_provenance(spec: ExperimentSpec) -> dict:
    from repro import __version__

    return {
        "kind": spec.kind,
        "scheme": spec.scheme,
        "compiled": False,
        "cache": None,
        "version": __version__,
    }


def build_scheme_protocol(
    scheme: str, num_nodes: int, degree: int = 3, *, seed: int = 0, **options
):
    """The protocol object of any of :data:`SCHEMES`: ``build_protocol``'s
    (``options``: construction, mode, latency), or the seeded gossip overlay."""
    if scheme == "gossip":
        from repro.baselines import RandomGossipProtocol

        return RandomGossipProtocol(num_nodes, degree, seed=seed)
    return build_protocol(scheme, num_nodes, degree, **options)


def _compiled_for(spec: ExperimentSpec, num_slots: int, provenance: dict):
    """Compile through the shared cache, or None for a randomized scheme."""
    if spec.scheme not in COMPILABLE_SCHEMES:
        return None
    schedule = compile_schedule(
        spec.scheme, spec.num_nodes, spec.degree,
        num_slots=num_slots, construction=spec.construction,
        mode=spec.mode, latency=spec.latency,
        cache=default_cache(), provenance=provenance,
    )
    provenance["compiled"] = True
    return schedule


# --------------------------------------------------------------------- kinds
def _run_stream(spec: ExperimentSpec, instr) -> tuple:
    provenance = _base_provenance(spec)
    if spec.drop_rate > 0:
        from repro.repair.session import make_lossy_protocol
        from repro.workloads.faults import bernoulli_drop

        if spec.scheme not in ("multi-tree", "hypercube"):
            raise ReproError(
                f"drop_rate needs a loss-aware scheme (multi-tree or "
                f"hypercube), not {spec.scheme!r}"
            )
        protocol = make_lossy_protocol(spec.scheme, spec.num_nodes, spec.degree)
        num_slots = protocol.slots_for_packets(spec.num_packets)
        trace = _engine_simulate(
            protocol, num_slots,
            drop_rule=bernoulli_drop(spec.drop_rate, seed=spec.seed),
            instrumentation=instr,
        )
        metrics = collect_repair_metrics(
            trace.all_arrivals(), num_packets=spec.num_packets, num_slots=num_slots
        )
    else:
        protocol = build_scheme_protocol(
            spec.scheme, spec.num_nodes, spec.degree, seed=spec.seed,
            construction=spec.construction, mode=spec.mode, latency=spec.latency,
        )
        num_slots = protocol.slots_for_packets(spec.num_packets)
        schedule = _compiled_for(spec, num_slots, provenance)
        trace = _engine_simulate(
            protocol, num_slots,
            instrumentation=instr,
            compiled_schedule=schedule,
        )
        try:
            metrics = collect_metrics(trace, num_packets=spec.num_packets)
        except ValueError as exc:  # a best-effort scheme (gossip) left gaps
            raise ReproError(f"{protocol.describe()}: {exc}") from exc
    provenance["description"] = protocol.describe()
    provenance["num_slots"] = num_slots
    return (metrics.row(),), metrics, trace, {"protocol": protocol}, provenance


def _run_repair(spec: ExperimentSpec, instr) -> tuple:
    from repro.repair.session import repair_experiment

    provenance = _base_provenance(spec)
    point = repair_experiment(
        spec.scheme, spec.num_nodes, spec.degree,
        num_packets=spec.num_packets,
        mode=spec.repair_mode,
        epsilon=spec.epsilon,
        slack_mode=spec.slack_mode,
        extra=spec.extra,
        group=spec.group,
        loss_rate=spec.drop_rate,
        seed=spec.seed,
        grace=spec.grace,
        instrumentation=instr,
    )
    provenance["description"] = point.description
    provenance["num_slots"] = point.num_slots
    return (point.row(),), point.metrics, None, {"point": point}, provenance


def _run_churn(spec: ExperimentSpec, instr) -> tuple:
    from repro.trees.live import churn_experiment, random_churn_schedule

    provenance = _base_provenance(spec)
    churn = random_churn_schedule(
        spec.num_nodes, spec.churn_events, seed=spec.seed
    )
    protocol, report = churn_experiment(
        spec.num_nodes, spec.degree, churn,
        num_packets=spec.num_packets,
        lazy=spec.lazy_churn,
        construction=spec.construction,
        instrumentation=instr,
    )
    provenance["description"] = protocol.describe()
    row = {
        "events_applied": len(protocol.reports),
        "population_before": spec.num_nodes,
        "population_after": protocol.forest.num_nodes,
        "total_hiccups": report.total_hiccups,
        "hiccup_nodes": len(report.hiccup_nodes),
        "relocated_nodes": len(report.relocated_nodes),
    }
    return (row,), report, None, {"protocol": protocol, "report": report}, provenance


def _run_fleet(spec: ExperimentSpec, instr) -> tuple:
    from repro.service import FleetRunner, FleetSpec, FleetTelemetry, SessionSpec
    from repro.service.admission import REJECTED

    provenance = _base_provenance(spec)
    fleet = spec.fleet
    if fleet is None:
        # Single-kind fleet built from the spec's scalar configuration.
        fleet = FleetSpec(
            sessions=(
                SessionSpec(
                    scheme=spec.scheme,
                    num_nodes=spec.num_nodes,
                    degree=spec.degree,
                    construction=spec.construction,
                    mode=spec.mode,
                    latency=spec.latency,
                    num_packets=spec.num_packets,
                    drop_rate=spec.drop_rate,
                ),
            ),
            seed=spec.seed,
        )
    elif not isinstance(fleet, FleetSpec):
        raise ReproError(
            f"spec.fleet must be a repro.service.FleetSpec, "
            f"got {type(fleet).__name__}"
        )
    telemetry = None
    if instr is not None and instr.spans is not None:
        # The fleet pipeline records its spans through a telemetry bundle.
        telemetry = FleetTelemetry(trace=False)
        telemetry.spans = instr.spans
    runner = FleetRunner(
        policy=spec.executor,
        registry=instr.registry if instr is not None else None,
        tracer=instr.tracer if instr is not None else None,
        telemetry=telemetry,
    )
    result = runner.run(fleet)
    report = result.report
    provenance["description"] = fleet.describe()
    provenance["compiled"] = True
    provenance["cache"] = {
        "hits": report.cache_hits,
        "misses": report.cache_misses,
        "hit_rate": report.cache_hit_rate,
    }
    provenance["executor"] = result.executor_info
    rows = tuple(report.sessions.rows())
    artifacts = {
        "report": report,
        "decisions": result.decisions,
        "fleet": fleet,
        "sessions": result.sessions,
    }
    if result.telemetry is not None:
        artifacts["telemetry"] = result.telemetry
    if result.convergence is not None:
        artifacts["convergence"] = result.convergence
        provenance["convergence"] = result.convergence.row()
    if result.control_decisions:
        # Controlled runs surface the decision log and the per-epoch
        # observation rows, so ledger consumers can replay the control
        # plane's moves without re-running the fleet.
        artifacts["control_decisions"] = tuple(
            decision.to_dict() for decision in result.control_decisions
        )
    if result.control_epochs:
        artifacts["epochs"] = result.control_epochs
    decisions = result.decisions
    artifacts["rejected_sessions"] = tuple(
        decisions.session_id[decisions.status == REJECTED].tolist()
    )
    return rows, report, None, artifacts, provenance


def _run_sweep(spec: ExperimentSpec, instr) -> tuple:
    provenance = _base_provenance(spec)
    if spec.scheme not in COMPILABLE_SCHEMES:
        raise ReproError(
            f"sweeps replay compiled schedules; scheme {spec.scheme!r} is not "
            f"compilable (choose from {COMPILABLE_SCHEMES})"
        )
    protocol = build_protocol(
        spec.scheme, spec.num_nodes, spec.degree,
        construction=spec.construction, mode=spec.mode, latency=spec.latency,
    )
    num_slots = protocol.slots_for_packets(spec.num_packets)
    schedule = _compiled_for(spec, num_slots, provenance)
    registry = instr.registry if instr is not None else None
    executor = SweepExecutor(spec.executor, registry=registry)
    # Batch-first execution (v2): one vectorized kernel call scores a whole
    # block of seeds at one rate.  Blocks are sized so every worker gets
    # roughly one per rate; row order still matches spec.grid() exactly
    # (rate-major, then seed order) because map() preserves task order and
    # each task's rows come back in seed order.
    seeds = spec.seeds or (spec.seed,)
    rates = spec.drop_rates or (spec.drop_rate,)
    block = max(1, -(-len(seeds) // spec.executor.resolved_workers()))
    blocks = [seeds[i : i + block] for i in range(0, len(seeds), block)]
    tasks = [
        (tuple(seed_block), rate, spec.num_packets)
        for rate in rates
        for seed_block in blocks
    ]
    nested = executor.map(replay_batch_task, tasks, payload=schedule)
    rows = [row for chunk in nested for row in chunk]
    provenance["description"] = protocol.describe()
    provenance["num_slots"] = num_slots
    provenance["executor"] = dict(executor.last_run)
    return tuple(rows), None, None, {"schedule": schedule}, provenance


def _run_abr(spec: ExperimentSpec, instr) -> tuple:
    from repro.abr import DEFAULT_PROFILES, DEFAULT_STARTUP_GRID, abr_tradeoff
    from repro.obs.registry import use_registry

    provenance = _base_provenance(spec)
    profiles = spec.abr_profiles or DEFAULT_PROFILES
    startups = spec.abr_startups or DEFAULT_STARTUP_GRID

    def sweep():
        return abr_tradeoff(
            profiles, startups,
            num_chunks=spec.abr_chunks,
            chunk_slots=spec.abr_chunk_slots,
            seed=spec.seed,
        )

    if instr is not None:
        with use_registry(instr.registry):
            report = sweep()
    else:
        report = sweep()
    provenance["description"] = (
        f"abr tradeoff: {len(profiles)} profiles x {len(startups)} prebuffer "
        f"targets, {spec.abr_chunks} chunks x {spec.abr_chunk_slots} slots"
    )
    provenance["tier_counts"] = report.tier_counts()
    return tuple(report.rows()), report, None, {"report": report}, provenance


_KIND_RUNNERS = {
    "stream": _run_stream,
    "repair": _run_repair,
    "churn": _run_churn,
    "sweep": _run_sweep,
    "fleet": _run_fleet,
    "abr": _run_abr,
}


def run(
    spec: ExperimentSpec,
    *,
    instrumentation: Instrumentation | None = None,
    ledger=None,
) -> ExperimentResult:
    """Run one experiment described by ``spec``.

    Args:
        spec: the experiment description.
        instrumentation: explicit bundle overriding the spec's
            ``profile``/``trace_events`` policy (the facade then neither
            creates nor closes it).
        ledger: where to record the run — a
            :class:`~repro.reporting.ledger.RunLedger`, a path, or None to
            use the ledger named by ``$REPRO_LEDGER`` (no recording when
            that is unset).  Every recorded run becomes one append-only
            JSONL line readable via ``repro runs``.
    """
    if not isinstance(spec, ExperimentSpec):
        raise ReproError(f"run() takes an ExperimentSpec, got {type(spec).__name__}")
    owns_instr = instrumentation is None
    instr = _instrumentation_for(spec) if owns_instr else instrumentation
    with Timer() as timer:
        rows, metrics, trace, artifacts, provenance = _KIND_RUNNERS[spec.kind](spec, instr)
    timing = timer.elapsed
    if owns_instr and instr is not None:
        instr.close()
    result = ExperimentResult(
        spec=spec,
        rows=rows,
        metrics=metrics,
        trace=trace,
        artifacts=artifacts,
        timing_s=timing,
        provenance=provenance,
        instrumentation=instr,
    )
    from repro.reporting.ledger import RunLedger, default_ledger, run_record

    if ledger is None:
        ledger = default_ledger()
    elif not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    if ledger is not None:
        ledger.append(run_record(spec, result))
    return result
