"""Fleet execution: run every admitted session, sharded across processes.

:class:`FleetRunner` turns a :class:`~repro.service.spec.FleetSpec` into a
:class:`~repro.service.slo.FleetSLOReport` in four steps:

1. **resolve** the scenario into concrete sessions (arrival slots, kinds,
   seeds, churn draws);
2. **admit** them through :class:`~repro.service.admission.SessionManager`,
   compiling each admitted configuration's schedule through the shared
   content-addressed :class:`~repro.exec.cache.ScheduleCache` to learn its
   true horizon — identical ``(scheme, N, d, ...)`` configs compile once per
   fleet, not once per session (the amortization the acceptance benchmark
   measures);
3. **execute** admitted sessions with the :class:`~repro.exec.SweepExecutor`
   process pool — the token-indexed schedule dict ships once per worker as
   the pool payload.  Sessions sharing a ``(schedule token, drop_rate,
   packets, horizon)`` coordinate group into **units**, each scored by one
   vectorized kernel pass (:func:`~repro.exec.replay_batch`; the 0.992
   cache hit rate means almost every session lands in a large unit).  ABR
   members of a unit additionally play one QoE session each.  Every
   session's loss mask is deterministic in its own seed, so results do not
   depend on the grouping or the worker count.  A serial unit writes its
   kernel counters straight into the caller's registry; a pool worker's
   snapshot merges back into it;
4. **aggregate** each unit's :class:`~repro.service.slo.SessionColumns`
   and the admission decisions into the fleet report (exact pooled
   percentiles, reject rate, cache hit-rate).

Every mode runs one **epoch loop**: an epoch admits a chunk of arrivals and
executes the sessions admitted during it as one window.  A static run is a
single epoch.  ``FleetSpec.convergence`` adds a stop predicate checked
every ``check_every`` executed sessions (:mod:`repro.obs.convergence`) —
the open-loop steady-state mode.  ``FleetSpec.controller`` splits the
arrivals into control epochs with a ``ControlPlane.step`` hook at the start
of each (``docs/CONTROL.md``).

Aggregation is **streaming**, one kernel unit at a time: each unit's
:class:`~repro.service.slo.SessionColumns` fold into a
:class:`~repro.service.slo.FleetAggregator` through the executor's
``on_result`` callback the moment its shard completes — with
``FleetSpec.aggregation="sketch"`` nothing per-session is ever
materialized, which is what lets ``bench_fleet_scale.py`` run 100k
sessions in bounded memory.  A :class:`FleetTelemetry` bundle adds
tumbling-window time series keyed by arrival slot and pipeline spans
(resolve/admit/execute/aggregate plus per-unit worker spans) exportable as
a Chrome trace.

Everything is deterministic in ``FleetSpec.seed`` regardless of worker count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Any

from repro.core.errors import ReproError
from repro.exec.cache import ScheduleCache
from repro.exec.compiler import compile_schedule
from repro.exec.batch import replay_batch
from repro.exec.executor import ExecutorPolicy, SweepExecutor, worker_payload
from repro.obs.convergence import ConvergenceDetector, ConvergenceState
from repro.obs.events import EventTracer
from repro.obs.names import (
    FLEET_ABR_SESSIONS,
    FLEET_CACHE_HIT_RATE,
    FLEET_GOODPUT,
    FLEET_QUEUE_WAIT,
    FLEET_REBUFFER_RATIO,
    FLEET_SESSIONS_COMPLETED,
    FLEET_SESSIONS_REPLAYED,
    FLEET_STARTUP_DELAY,
)
from repro.obs.registry import MetricsRegistry, active_registry, use_registry
from repro.obs.sketch import DEFAULT_RELATIVE_ERROR
from repro.obs.spans import SpanTracer, span_scope, worker_span
from repro.obs.timeseries import TimeSeries
from repro.service.admission import AdmissionDecision, SessionManager
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionColumns,
    pooled_percentile,
    score_batch_sessions,
)
from repro.service.spec import FleetSpec, ResolvedSession, SessionSpec

__all__ = [
    "FleetRunner",
    "FleetRunResult",
    "FleetTelemetry",
    "fleet_unit_task",
]


def fleet_unit_task(unit: tuple[Any, ...]) -> tuple[list[int], SessionColumns]:
    """Executor worker: score one execution unit.

    Unit tuple: ``(token, drop_rate, num_packets, horizon, members)``.
    Every member session shares the token's compiled schedule (from
    :func:`~repro.exec.executor.worker_payload`) and the replay coordinate,
    so one :func:`~repro.exec.replay_batch` kernel pass scores the whole
    group.  ``members`` is a tuple of ``(task_index, session_id, label,
    status, seed, wait_slots, abr_profile)``.  A member with an
    ``abr_profile`` additionally plays a deterministic ABR session (one
    chunk per measured packet) against that bandwidth profile, seeded by
    the session seed, and its row of the ``qoe`` column carries the
    resulting QoE metrics.

    Returns ``(task_indices, SessionColumns)``, rows in member order; the
    task indices are fleet-global so the runner can attribute results
    (telemetry windows) to the right session no matter how sessions were
    grouped.  Apart from the kernel's own counters the unit writes no
    metric: the runner folds its columns into the report.  Any failure is
    re-raised as a :class:`ReproError` naming the unit.
    """
    token, drop_rate, num_packets, horizon, members = unit
    try:
        with worker_span("session.replay", sessions=len(members), label=members[0][2]):
            batch = replay_batch(
                worker_payload()[token],
                [member[4] for member in members],
                drop_rate,
                num_packets=num_packets,
                num_slots=horizon,
                keep_node_columns=True,
            )
            columns = score_batch_sessions(
                batch,
                session_ids=[member[1] for member in members],
                labels=[member[2] for member in members],
                wait_slots=[member[5] for member in members],
                statuses=[member[3] for member in members],
            )
            if any(member[6] is not None for member in members):
                columns = replace(columns, qoe=tuple(
                    None if member[6] is None else _with_qoe(member[6], member[4], num_packets)
                    for member in members
                ))
    except Exception as exc:
        raise ReproError(
            f"fleet unit {str(token)[:12]} ({len(members)} sessions, ids "
            f"{members[0][1]}..{members[-1][1]}) failed: {type(exc).__name__}: {exc}"
        ) from exc
    return [member[0] for member in members], columns


def _with_qoe(profile: str, seed: int, num_packets: int) -> dict:
    """The QoE dict of one ABR session's playback against ``profile``."""
    from repro.abr import AbrSessionSpec, build_profile, collect_qoe, run_session

    spec = AbrSessionSpec(num_chunks=num_packets)
    trace = build_profile(
        profile, max(64, num_packets * spec.chunk_slots), seed=seed
    )
    return collect_qoe(run_session(spec, trace)).to_dict()


class FleetTelemetry:
    """Optional fleet-run telemetry bundle: time series + pipeline spans.

    Args:
        window: tumbling-window width (arrival slots) of the time series.
        relative_error: per-window sketch error bound.
        trace: record pipeline spans (resolve/admit/execute/aggregate and
            per-unit worker spans) under one trace id.
    """

    __slots__ = ("series", "spans")

    def __init__(
        self,
        *,
        window: int = 8,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        trace: bool = True,
    ) -> None:
        self.series = TimeSeries(window, relative_error=relative_error)
        self.spans: SpanTracer | None = SpanTracer() if trace else None

    def record_decision(self, decision: AdmissionDecision, arrival_slot: int) -> None:
        """Window the admission outcome at the session's arrival slot."""
        self.series.count(f"fleet.{decision.status}", arrival_slot)
        if decision.admitted and decision.wait_slots > 0:
            self.series.observe(FLEET_QUEUE_WAIT, arrival_slot, decision.wait_slots)

    def record_sessions(self, columns: SessionColumns, arrival_slots: Sequence[int]) -> None:
        """Window each completed session of a unit at its arrival slot."""
        for slot, startup, rebuffer, goodput in zip(
            arrival_slots, columns.startup_delay.tolist(),
            columns.rebuffer_ratio.tolist(), columns.goodput.tolist(),
        ):
            self.series.count(FLEET_SESSIONS_COMPLETED, slot)
            self.series.observe(FLEET_STARTUP_DELAY, slot, startup)
            self.series.observe(FLEET_REBUFFER_RATIO, slot, rebuffer)
            self.series.gauge(FLEET_GOODPUT, slot, goodput)

    def rows(self) -> list[dict[str, Any]]:
        """Flat (window, series) rows for table rendering."""
        return self.series.rows()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dump: the full time series plus any finished spans."""
        payload: dict[str, Any] = {"series": self.series.to_dict()}
        if self.spans is not None:
            payload["trace_id"] = self.spans.trace_id
            payload["spans"] = self.spans.to_dicts()
        return payload


@dataclass(frozen=True, slots=True)
class FleetRunResult:
    """Everything a fleet run produced.

    Attributes:
        report: the aggregated :class:`~repro.service.slo.FleetSLOReport`.
        decisions: per-session admission outcomes, in arrival order.
        sessions: the resolved scenario the run executed.
        executor_info: how the execution fanned out
            (:attr:`SweepExecutor.last_run` of the last executed window,
            plus ``tasks`` = sessions actually run and ``units`` = executor
            tasks after batch grouping; convergence runs add the
            ``batches`` executed, controlled runs the ``epochs``).
        telemetry: the :class:`FleetTelemetry` bundle the run recorded into
            (``None`` when telemetry was off).
        convergence: the final detector state when ``FleetSpec.convergence``
            is set (``None`` otherwise).
        control_decisions: the control plane's
            :class:`~repro.control.ControlDecision` records, in decision
            order (empty for uncontrolled runs).
        control_epochs: one row per control epoch — observed p99, the
            policy/queue-bound knobs in force, and the epoch's
            admitted/degraded/rejected tallies (empty for uncontrolled
            runs).
    """

    report: FleetSLOReport
    decisions: tuple[AdmissionDecision, ...]
    sessions: tuple[ResolvedSession, ...]
    executor_info: dict
    telemetry: FleetTelemetry | None = None
    convergence: ConvergenceState | None = None
    control_decisions: tuple[Any, ...] = ()
    control_epochs: tuple[dict, ...] = ()


def _tally(made: Sequence[AdmissionDecision]) -> dict[str, int]:
    counts = Counter(d.status for d in made)
    return {
        "admitted": counts["admitted"],
        "degraded": counts["degraded"],
        "rejected": counts["rejected"],
    }


class _ControlHook:
    """The control plane's decide→act→observe step between epochs.

    :meth:`step` runs at the start of an epoch: the
    :class:`~repro.control.ControlPlane` reads the *previous* epoch's p99
    startup delay and admission tallies plus the upcoming chunk's mix and
    churn, decides, and its knobs (admission policy, queue bound, per-kind
    degree overrides) are applied before the chunk is admitted — so every
    decision is observed one epoch later.  :meth:`close` ends an epoch and
    records its row.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        manager: SessionManager,
        by_id: dict[int, ResolvedSession],
        *,
        cache: ScheduleCache,
        spans: SpanTracer | None,
        tracer: EventTracer | None,
    ) -> None:
        from repro.control.controllers import ControlPlane

        self.plane = ControlPlane(
            fleet.controller,
            initial_policy=fleet.policy,
            max_queue_slots=fleet.max_queue_slots,
            min_degree=fleet.min_degree,
            cache=cache,
            seed=fleet.seed,
            spans=spans,
            tracer=tracer,
        )
        self.manager = manager
        self.by_id = by_id
        self.kinds = {s.label: s for s in fleet.sessions}
        self.rows: list[dict[str, Any]] = []
        self.epochs = 0
        self._seen: Counter[int] = Counter()
        self._delays: list[int] = []
        self._made: Sequence[AdmissionDecision] = ()
        self._p99: float | None = None
        self._decisions = 0

    def step(self, chunk: Sequence[ResolvedSession]) -> Sequence[ResolvedSession]:
        """Decide on the previous epoch; return ``chunk`` as admitted."""
        from repro.control.controllers import EpochObservation

        self._p99 = (
            float(pooled_percentile(Counter(self._delays), 99))
            if self._delays else None
        )
        prev = _tally(self._made)
        mix = Counter(s.spec.label for s in chunk)
        stepped = self.plane.step(
            EpochObservation(
                epoch=self.epochs,
                p99=self._p99,
                cumulative_p99=(
                    float(pooled_percentile(self._seen, 99))
                    if self._seen else None
                ),
                admitted=prev["admitted"],
                degraded=prev["degraded"],
                rejected=prev["rejected"],
                arrivals=len(chunk),
                joins=len(chunk),
                leaves=sum(1 for s in chunk if s.leave_fraction is not None),
                mix=tuple(sorted(mix.items())),
            ),
            self.kinds,
        )
        self._decisions = len(stepped)
        self.manager.policy = self.plane.admission_policy
        self.manager.max_queue_slots = self.plane.max_queue_slots
        overrides = self.plane.degree_overrides
        if not overrides:
            return chunk
        # Rebuild (and validate) each (kind, degree) pair once per epoch,
        # not once per session.
        respecs: dict[tuple[SessionSpec, int], SessionSpec] = {}
        out: list[ResolvedSession] = []
        for session in chunk:
            spec = session.spec
            degree = overrides.get(spec.label, spec.degree)
            if degree != spec.degree:
                respec = respecs.get((spec, degree))
                if respec is None:
                    respec = respecs[(spec, degree)] = spec.with_degree(degree)
                session = ResolvedSession(
                    session.session_id, respec, session.arrival_slot,
                    session.seed, session.leave_fraction,
                )
                self.by_id[session.session_id] = session
            out.append(session)
        return out

    def close(
        self,
        chunk: Sequence[ResolvedSession],
        made: Sequence[AdmissionDecision],
        delays: list[int],
    ) -> None:
        """Record one epoch's row; the queue-draining final epoch (no
        arrivals) gets one only when it decided something."""
        if chunk or made:
            self.rows.append({
                "epoch": self.epochs,
                "arrivals": len(chunk),
                "observed_p99": self._p99,
                "policy": self.manager.policy,
                "max_queue_slots": self.manager.max_queue_slots,
                **_tally(made),
                "queued": self.manager.queued_count,
                "decisions": self._decisions,
            })
        if chunk:
            self.epochs += 1
        self._p99 = None
        self._decisions = 0
        self._delays = list(delays)
        self._seen.update(delays)
        self._made = made


class FleetRunner:
    """Execute fleet scenarios against a shared schedule cache.

    Args:
        cache: schedule cache shared across the fleet (a private in-process
            cache by default; pass one with a disk layer to amortize across
            runs too).
        policy: executor fan-out policy (worker count / serial / parallel).
        registry: metrics registry the run reports into (the active registry
            by default); admission counters, cache traffic, and merged worker
            snapshots all land here.
        tracer: optional :class:`~repro.obs.EventTracer` receiving
            ``session_*`` admission events.
        telemetry: optional :class:`FleetTelemetry` bundle; when given, the
            run records windowed time series and pipeline spans into it and
            attaches it to the :class:`FleetRunResult`.
    """

    def __init__(
        self,
        *,
        cache: ScheduleCache | None = None,
        policy: ExecutorPolicy | None = None,
        registry: MetricsRegistry | None = None,
        tracer: EventTracer | None = None,
        telemetry: FleetTelemetry | None = None,
    ) -> None:
        self.cache = cache if cache is not None else ScheduleCache(capacity=64)
        self.policy = policy if policy is not None else ExecutorPolicy()
        self.registry = registry
        self.tracer = tracer
        self.telemetry = telemetry
        #: Cache traffic of the last :meth:`run` (one lookup per admission).
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------ build
    def _compile(
        self, spec: SessionSpec, degree: int, schedules: dict[str, Any]
    ) -> tuple[str, Any]:
        """Compile one configuration through the shared cache.

        Returns ``(token, schedule)`` and tallies the hit/miss.  ``run``
        memoizes this per configuration and tallies memo hits itself, so
        the fleet hit-rate still counts one lookup per admitted session
        and directly measures compile amortization.
        """
        provenance: dict = {}
        schedule = compile_schedule(
            spec.scheme,
            spec.num_nodes,
            degree,
            num_packets=spec.num_packets,
            construction=spec.construction,
            mode=spec.mode,
            latency=spec.latency,
            cache=self.cache,
            provenance=provenance,
        )
        if provenance["cache"] == "miss":
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        token = provenance["cache_token"]
        schedules[token] = schedule
        return token, schedule

    # -------------------------------------------------------------------- api
    def run(self, fleet: FleetSpec) -> FleetRunResult:
        """Resolve, admit, execute, and score one fleet scenario.

        Runs the epoch loop described in the module docstring.  Each
        epoch admits a chunk of arrivals
        (:meth:`SessionManager.admit_chunk`; the last epoch also drains
        the queue with :meth:`SessionManager.finalize`) and executes the
        sessions admitted during it as one window.  On a convergence stop,
        decisions (and the report's admission tallies) cover exactly the
        arrival prefix that was executed, which is well-defined because
        admission of session *i* depends only on earlier arrivals.
        """
        registry = self.registry if self.registry is not None else active_registry()
        telemetry = self.telemetry
        spans = telemetry.spans if telemetry is not None else None
        self.cache_hits = 0
        self.cache_misses = 0
        schedules: dict[str, Any] = {}
        tokens: dict[int, str] = {}
        compile_memo: dict[tuple, tuple[str, Any]] = {}
        with span_scope(spans, "fleet.resolve"):
            sessions = fleet.resolve()
        by_id = {s.session_id: s for s in sessions}

        def duration_of(session: ResolvedSession, degree: int) -> int:
            # Memoize per configuration for the run: compile_schedule
            # rebuilds the protocol to derive the horizon before it can
            # consult the shared cache, so even a cache hit would cost a
            # protocol build per admission.  A memo hit is the same outcome
            # as a shared-cache hit, so the fleet hit-rate (one lookup per
            # admission) is unchanged.
            spec = session.spec
            key = (
                spec.scheme, spec.num_nodes, degree, spec.num_packets,
                spec.construction, spec.mode, spec.latency,
            )
            cached = compile_memo.get(key)
            if cached is None:
                cached = self._compile(spec, degree, schedules)
                compile_memo[key] = cached
            else:
                self.cache_hits += 1
            token, schedule = cached
            tokens[session.session_id] = token
            horizon = schedule.num_slots
            if session.leave_fraction is not None:
                # Churned viewer: capacity (and the SLO window) only cover
                # the watched prefix.
                horizon = max(1, int(session.leave_fraction * horizon))
            return horizon

        manager = SessionManager(
            fleet.capacity,
            policy=fleet.policy,
            max_queue_slots=fleet.max_queue_slots,
            min_degree=fleet.min_degree,
            tracer=self.tracer,
        )
        control = (
            _ControlHook(
                fleet, manager, by_id,
                cache=self.cache, spans=spans, tracer=self.tracer,
            )
            if fleet.controller is not None else None
        )
        detector = (
            ConvergenceDetector(fleet.convergence)
            if fleet.convergence is not None else None
        )
        sketch_mode = fleet.aggregation == "sketch"
        aggregator = FleetAggregator(
            relative_error=fleet.sketch_error if sketch_mode else 0.0,
            keep_sessions=not sketch_mode,
        )
        executor = SweepExecutor(self.policy, registry=registry, spans=spans)
        workers = self.policy.resolved_workers()
        # One ``(token, drop_rate, num_packets, horizon, unit member)`` task
        # per admitted session, in decision order; the first four fields
        # are the group key, and a task's index is its position here.
        tasks: list[tuple] = []
        task_arrivals: list[int] = []
        epoch_delays: list[int] = []
        last_run: dict | None = None
        executed = 0
        units_run = 0
        windows = 0

        def add_task(decision: AdmissionDecision) -> None:
            session = by_id[decision.session_id]
            spec = session.spec
            token = tokens[decision.session_id]
            full = schedules[token].num_slots
            horizon = decision.duration
            num_packets = spec.num_packets
            if horizon < full:
                # Score only the packets the watched prefix can carry.
                num_packets = max(1, int(num_packets * horizon / full))
            tasks.append((
                token, spec.drop_rate, num_packets, horizon,
                (
                    len(tasks), decision.session_id, spec.label,
                    decision.status, session.seed, decision.wait_slots,
                    spec.abr_profile,
                ),
            ))
            task_arrivals.append(session.arrival_slot)

        def on_result(index: int, result: tuple[list[int], SessionColumns]) -> None:
            task_indices, columns = result
            aggregator.add_sessions(columns)
            delays = columns.startup_delay.tolist()
            if control is not None:
                epoch_delays.extend(delays)
            if telemetry is not None:
                telemetry.record_sessions(columns, [task_arrivals[i] for i in task_indices])
            if detector is not None:
                for delay in delays:
                    detector.add(delay)

        def execute_window(lo: int, hi: int) -> None:
            """Run ``tasks[lo:hi]`` (non-empty) through the executor.

            Sessions sharing a group key form one unit, split into roughly
            one block per worker so homogeneous fleets still fan out.  Unit
            order (group first-seen order, members in task order) does not
            depend on the worker count, so streaming aggregation folds
            identically serial or parallel.
            """
            nonlocal last_run, executed, units_run, windows
            groups: dict[tuple, list[tuple]] = {}
            for task in tasks[lo:hi]:
                groups.setdefault(task[:4], []).append(task[4])
            units: list[tuple] = []
            for key, members in groups.items():
                block = max(1, -(-len(members) // workers))
                units.extend(
                    (*key, tuple(members[i:i + block]))
                    for i in range(0, len(members), block)
                )
            executor.map(
                fleet_unit_task, units, payload=schedules,
                on_result=on_result, collect=False,
            )
            last_run = dict(executor.last_run)
            executed = hi
            units_run += len(units)
            windows += 1

        def execute(lo: int) -> bool:
            """Run ``tasks[lo:]``; True once the stop predicate fires."""
            while lo < len(tasks):
                hi = len(tasks)
                if detector is not None:
                    hi = min(hi, lo + detector.criterion.check_every)
                execute_window(lo, hi)
                lo = hi
                if detector is not None and detector.state().converged:
                    return True
            return False

        size = len(sessions) if control is None else fleet.controller.epoch_sessions
        epochs: list[Sequence[ResolvedSession]] = [
            sessions[lo:lo + size] for lo in range(0, len(sessions), size)
        ]
        if control is not None:
            epochs.append(())  # drains the queue after the last arrival
        made_all: list[AdmissionDecision] = []
        with use_registry(registry):
            manager.start()
            for number, chunk in enumerate(epochs, 1):
                if control is not None and chunk:
                    chunk = control.step(chunk)
                with span_scope(spans, "fleet.admit", sessions=len(chunk)):
                    made = manager.admit_chunk(chunk, duration_of)
                    if number == len(epochs):
                        made += manager.finalize(duration_of)
                made_all += made
                base = len(tasks)
                for decision in made:
                    if decision.admitted:
                        add_task(decision)
                epoch_delays.clear()
                with span_scope(spans, "fleet.execute", tasks=len(tasks) - base):
                    stopped = execute(base)
                if control is not None:
                    control.close(chunk, made, epoch_delays)
                if stopped:
                    break

            decisions = sorted(made_all, key=lambda d: d.session_id)
            if executed < len(tasks):
                # Early stop: the report covers exactly the executed arrival
                # prefix.  Admission of session i depends only on earlier
                # arrivals, so the prefix is self-consistent.
                cutoff = tasks[executed - 1][4][1]
                decisions = [d for d in decisions if d.session_id <= cutoff]
            for decision in decisions:
                aggregator.add_decision(decision)
                if telemetry is not None:
                    telemetry.record_decision(
                        decision, by_id[decision.session_id].arrival_slot
                    )
            with span_scope(spans, "fleet.aggregate", sessions=executed):
                report = aggregator.report(
                    cache_hits=self.cache_hits,
                    cache_misses=self.cache_misses,
                )
            registry.gauge(FLEET_CACHE_HIT_RATE).set(report.cache_hit_rate)
            for label, count in Counter(task[4][2] for task in tasks[:executed]).items():
                registry.counter(FLEET_SESSIONS_REPLAYED, label=label).inc(count)
            for tier, count in report.qoe_tiers:
                registry.counter(FLEET_ABR_SESSIONS, tier=tier).inc(count)
        executor_info = last_run or {"mode": "empty", "workers": 0, "fallback": False}
        if detector is not None:
            executor_info["batches"] = windows
        executor_info["tasks"] = executed
        executor_info["units"] = units_run
        if control is not None:
            executor_info["epochs"] = control.epochs
        return FleetRunResult(
            report=report,
            decisions=tuple(decisions),
            sessions=sessions,
            executor_info=executor_info,
            telemetry=telemetry,
            convergence=detector.state() if detector is not None else None,
            control_decisions=(
                tuple(control.plane.decisions) if control is not None else ()
            ),
            control_epochs=tuple(control.rows) if control is not None else (),
        )
