"""Fleet execution: run every admitted session, sharded across processes.

:class:`FleetRunner` turns a :class:`~repro.service.spec.FleetSpec` into a
:class:`~repro.service.slo.FleetSLOReport` in four steps, carrying the fleet
as NumPy columns from end to end:

1. **resolve** the scenario into its
   :class:`~repro.service.spec.SessionTable` (arrival slots, kinds, seeds,
   churn draws);
2. **admit** it through :class:`~repro.service.admission.SessionManager`
   into a :class:`~repro.service.admission.DecisionTable`, compiling each
   admitted configuration's schedule through the shared content-addressed
   :class:`~repro.exec.cache.ScheduleCache` to learn its true horizon —
   each ``(scheme, N, d, P, construction, mode, latency)`` configuration
   compiles once per fleet, not once per session or per kind (the
   amortization the acceptance benchmark measures);
3. **execute** admitted sessions with the :class:`~repro.exec.SweepExecutor`
   process pool — the token-indexed schedule dict ships once per worker as
   the pool payload.  A window's sessions that share a schedule token form
   one **unit** (one block per worker), scored by one vectorized kernel
   pass (:func:`~repro.exec.replay_batch`) at each member's own drop rate,
   packet prefix and horizon; ABR members also play one QoE session each.
   Every session's loss mask is deterministic in its own seed, so results
   do not depend on the grouping or the worker count.  A serial unit
   writes its kernel counters straight into the caller's registry; a pool
   worker's snapshot merges back into it;
4. **aggregate** each unit's :class:`~repro.service.slo.SessionColumns`
   as it arrives, and the decision table, into the fleet report (exact
   pooled percentiles and means, reject rate, cache hit-rate).  Every
   fold is a table sum, so no order of the units is kept.

No per-session object is built on this path: a
:class:`~repro.service.spec.ResolvedSession` or
:class:`~repro.service.admission.AdmissionDecision` exists only when a
caller indexes or iterates the result's tables.

Every mode runs one **epoch loop**: an epoch admits a chunk of arrivals and
executes the sessions admitted during it as one window.  A static run is a
single epoch.  ``FleetSpec.convergence`` adds a stop predicate checked
every ``check_every`` executed sessions (:mod:`repro.obs.convergence`) —
the open-loop steady-state mode.  ``FleetSpec.controller`` splits the
arrivals into control epochs with a ``ControlPlane.step`` hook at the start
of each (``docs/CONTROL.md``).

Aggregation is **streaming**, one unit at a time: each unit's
:class:`~repro.service.slo.SessionColumns` fold into a
:class:`~repro.service.slo.FleetAggregator` through the executor's
``on_result`` callback, as exact tables — with
``FleetSpec.aggregation="sketch"`` nothing per-session is ever
materialized, which is what lets ``bench_fleet_scale.py`` run 100k
sessions in bounded memory.  A
:class:`FleetTelemetry` bundle adds tumbling-window time series keyed by
arrival slot and pipeline spans (resolve/admit/execute/aggregate plus
per-unit worker spans) exportable as a Chrome trace.

Everything is deterministic in ``FleetSpec.seed`` regardless of worker count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

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
from repro.obs.quantiles import pooled_percentile
from repro.obs.registry import MetricsRegistry, active_registry, use_registry
from repro.obs.spans import SpanTracer, span_scope, worker_span
from repro.obs.timeseries import TimeSeries
from repro.service.admission import (
    REJECTED,
    STATUSES,
    DecisionTable,
    SessionManager,
)
from repro.service.slo import (
    FleetAggregator,
    FleetSLOReport,
    SessionColumns,
    score_batch_sessions,
)
from repro.service.spec import FleetSpec, SessionSpec, SessionTable

__all__ = [
    "FleetRunner",
    "FleetRunResult",
    "FleetTelemetry",
    "fleet_unit_task",
]


def fleet_unit_task(unit: tuple[Any, ...]) -> tuple[np.ndarray, SessionColumns]:
    """Executor worker: score one execution unit.

    Unit tuple: ``(token, members)``.  Every member session shares the
    token's compiled schedule (from
    :func:`~repro.exec.executor.worker_payload`), so one
    :func:`~repro.exec.replay_batch` kernel pass scores the whole unit,
    each member at its own drop rate, packet prefix and horizon.
    ``members`` is ten aligned columns: ``(task_indices, session_ids,
    labels, statuses, seeds, wait_slots, drop_rates, num_packets, horizons,
    abr_profiles)`` — int64 arrays for the indices, ids, seeds, waits,
    prefixes and horizons, lists for the labels, statuses and drop rates,
    and ``abr_profiles`` a list (``None`` for a member without ABR) or
    ``None`` when no member has one.  A member with an ABR profile
    additionally plays a deterministic ABR session (one chunk per measured
    packet) against that bandwidth profile, seeded by the session seed, and
    its row of the ``qoe`` column carries the resulting QoE metrics.

    Returns ``(task_indices, SessionColumns)``, rows in member order; task
    indices are fleet-global.  Apart from the kernel's own counters the
    unit writes no metric.  Any failure is re-raised as a
    :class:`ReproError` naming the unit.
    """
    token, members = unit
    tasks, session_ids, labels, statuses, seeds, waits, rates, packets, horizons, profiles = members
    try:
        with worker_span("session.replay", sessions=len(tasks), label=labels[0]):
            seeds = seeds.tolist()
            batch = replay_batch(
                worker_payload()[token],
                seeds,
                rates,
                num_packets=packets,
                num_slots=horizons,
                keep_node_columns=True,
            )
            columns = score_batch_sessions(
                batch,
                session_ids=session_ids.tolist(),
                labels=labels,
                wait_slots=waits,
                statuses=statuses,
            )
            if profiles is not None:
                columns = replace(columns, qoe=tuple(
                    None if profile is None else _with_qoe(profile, seed, num_packets)
                    for profile, seed, num_packets in zip(
                        profiles, seeds, batch.num_packets.tolist()
                    )
                ))
    except Exception as exc:
        raise ReproError(
            f"fleet unit {str(token)[:12]} ({len(tasks)} sessions, ids "
            f"{session_ids[0]}..{session_ids[-1]}) failed: {type(exc).__name__}: {exc}"
        ) from exc
    return tasks, columns


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
        trace: record pipeline spans (resolve/admit/execute/aggregate and
            per-unit worker spans) under one trace id.
    """

    __slots__ = ("series", "spans")

    def __init__(self, *, window: int = 8, trace: bool = True) -> None:
        self.series = TimeSeries(window)
        self.spans: SpanTracer | None = SpanTracer() if trace else None

    def _windows(self, slots: np.ndarray, *columns: np.ndarray) -> Iterator[tuple]:
        """Per window of ``slots``: a slot in it, then each column's values there."""
        if len(slots) == 0:
            return
        windows = slots // self.series.window
        order = np.argsort(windows, kind="stable")
        bounds = [0, *(np.flatnonzero(np.diff(windows[order])) + 1).tolist(), len(slots)]
        lists = [column[order].tolist() for column in (slots, *columns)]
        for lo, hi in zip(bounds, bounds[1:]):
            yield lists[0][lo], *(values[lo:hi] for values in lists[1:])

    def record_decisions(self, decisions: DecisionTable) -> None:
        """Window each admission outcome at the session's arrival slot: per
        window, one count per status (in first-seen order) and the queue
        waits of the admitted sessions that waited."""
        waited = np.where(decisions.status != REJECTED, decisions.wait_slots, 0)
        for slot, statuses, waits in self._windows(
            decisions.arrival_slot, decisions.status, waited
        ):
            for status, count in Counter(statuses).items():
                self.series.count(f"fleet.{STATUSES[status]}", slot, count)
            if waits := [wait for wait in waits if wait > 0]:
                self.series.observe(FLEET_QUEUE_WAIT, slot, *waits)

    def record_sessions(self, columns: SessionColumns, arrival_slots: np.ndarray) -> None:
        """Window each completed session of a unit at its arrival slot: per
        window, one count and one table update per series."""
        for slot, startups, rebuffers, goodputs in self._windows(
            arrival_slots, columns.startup_delay, columns.rebuffer_ratio, columns.goodput
        ):
            self.series.count(FLEET_SESSIONS_COMPLETED, slot, len(startups))
            self.series.observe(FLEET_STARTUP_DELAY, slot, *startups)
            self.series.observe(FLEET_REBUFFER_RATIO, slot, *rebuffers)
            self.series.observe(FLEET_GOODPUT, slot, *goodputs)

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
        decisions: the admission decision table, sorted by session id
            (rows are :class:`~repro.service.admission.AdmissionDecision`).
        sessions: the resolved session table the run executed (rows are
            :class:`~repro.service.spec.ResolvedSession`, with each
            session's kind as resolved, before any control-plane retune).
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
    decisions: DecisionTable
    sessions: SessionTable
    executor_info: dict
    telemetry: FleetTelemetry | None = None
    convergence: ConvergenceState | None = None
    control_decisions: tuple[Any, ...] = ()
    control_epochs: tuple[dict, ...] = ()


def _tally(made: DecisionTable) -> dict[str, int]:
    return dict(zip(STATUSES, np.bincount(made.status, minlength=len(STATUSES)).tolist()))


class _ControlHook:
    """The control plane's decide→act→observe step between epochs.

    :meth:`step` runs at the start of an epoch: the
    :class:`~repro.control.ControlPlane` reads the *previous* epoch's p99
    startup delay plus the upcoming chunk's mix and churn, decides, and
    its knobs (admission policy, queue bound, per-kind degree overrides)
    are applied before the chunk is admitted — so every decision is
    observed one epoch later.  A degree override remaps the
    chunk's kind column to a copy of the kind at the new degree, appended
    to the run's ``kinds``.  :meth:`close` ends an epoch and records its
    row.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        manager: SessionManager,
        kinds: list[SessionSpec],
        *,
        spans: SpanTracer | None,
        tracer: EventTracer | None,
    ) -> None:
        from repro.control.controllers import ControlPlane

        self.plane = ControlPlane(
            fleet.controller,
            initial_policy=fleet.policy,
            max_queue_slots=fleet.max_queue_slots,
            min_degree=fleet.min_degree,
            seed=fleet.seed,
            spans=spans,
            tracer=tracer,
        )
        self.manager = manager
        self.kinds = {s.label: s for s in fleet.sessions}
        self.rows: list[dict[str, Any]] = []
        self.epochs = 0
        self._run_kinds = kinds
        self._respecs: dict[tuple[int, int], int] = {}
        self._delays: Counter[int] = Counter()
        self._p99: float | None = None
        self._decisions = 0

    def _retune(self, overrides: dict[str, int], originals: Sequence[SessionSpec]) -> np.ndarray:
        """Each original kind's index among the run's kinds: itself, or
        its copy at the overridden degree (built and validated once)."""
        kinds = self._run_kinds
        remap = list(range(len(originals)))
        for kind, spec in enumerate(originals):
            degree = overrides.get(spec.label, spec.degree)
            if degree != spec.degree:
                if (kind, degree) not in self._respecs:
                    self._respecs[kind, degree] = len(kinds)
                    kinds.append(spec.with_degree(degree))
                remap[kind] = self._respecs[kind, degree]
        return np.array(remap)

    def step(self, chunk: SessionTable) -> SessionTable:
        """Decide on the previous epoch; return ``chunk`` as admitted."""
        from repro.control.controllers import EpochObservation

        self._p99 = float(pooled_percentile(self._delays, 99)) if self._delays else None
        counts = np.bincount(chunk.kind)
        mix: Counter[str] = Counter()
        for kind in np.flatnonzero(counts).tolist():
            mix[chunk.kinds[kind].label] += int(counts[kind])
        stepped = self.plane.step(
            EpochObservation(
                epoch=self.epochs,
                p99=self._p99,
                arrivals=len(chunk),
                joins=len(chunk),
                leaves=len(chunk) - int(np.count_nonzero(np.isnan(chunk.leave_fraction))),
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
        remap = self._retune(overrides, chunk.kinds)
        return SessionTable(
            self._run_kinds, chunk.session_id, remap[chunk.kind],
            chunk.arrival_slot, chunk.seed, chunk.leave_fraction,
        )

    def close(
        self, chunk: SessionTable, made: DecisionTable, delays: Counter[int]
    ) -> None:
        """Record one epoch's row; the queue-draining final epoch (no
        arrivals) gets one only when it decided something.  ``delays`` is
        the startup-delay table of the sessions the epoch executed."""
        if len(chunk) or len(made):
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
        if len(chunk):
            self.epochs += 1
        self._p99 = None
        self._decisions = 0
        self._delays = delays


def _configuration(spec: SessionSpec, degree: int) -> tuple:
    """The compile key of ``spec`` at ``degree``: kinds that differ only in
    label, weight, loss or ABR profile share one compiled schedule."""
    return (
        spec.scheme, spec.num_nodes, degree, spec.num_packets,
        spec.construction, spec.mode, spec.latency,
    )


class _Tasks:
    """One epoch's admitted sessions as task columns, in decision order.

    Task ``base + i`` is row ``i``.  A row's ``(kind, degree)`` pair names
    its configuration, so its schedule token, drop rate and packet count;
    a churned row's shorter horizon shortens its watched prefix.
    """

    __slots__ = (
        "base", "session_id", "status", "wait", "arrival", "horizon", "seed",
        "pair", "label", "token", "packets", "tokens", "pair_rate", "pair_label",
        "pair_abr",
    )

    def __init__(
        self,
        made: DecisionTable,
        base: int,
        seeds: np.ndarray,
        kind_of: np.ndarray,
        kinds: Sequence[SessionSpec],
        compiled: dict[tuple, tuple[str, int]],
        labels: dict[str, int],
    ) -> None:
        admitted = made.status != REJECTED
        if not admitted.all():
            made = made[admitted]
        self.base = base
        self.session_id = made.session_id
        self.status = made.status
        self.wait = made.wait_slots
        self.arrival = made.arrival_slot
        self.horizon = made.duration
        self.seed = seeds[made.session_id]
        width = int(made.degree.max()) + 1 if len(made) else 1
        codes = kind_of[made.session_id] * width + made.degree
        counts = np.bincount(codes)
        present = np.flatnonzero(counts)
        pair_of = np.zeros(len(counts), dtype=np.int64)
        pair_of[present] = np.arange(len(present))
        self.pair = pair_of[codes]
        # Per pair: its token (as an index into ``tokens``), packet count
        # and full horizon, drop rate, label and ABR profile.
        tokens: dict[str, int] = {}
        pair_ints: list[tuple[int, int, int]] = []
        self.pair_rate: list[float] = []
        self.pair_label: list[str] = []
        self.pair_abr: list[str | None] = []
        for code in present.tolist():
            kind, degree = divmod(code, width)
            spec = kinds[kind]
            token, horizon = compiled[_configuration(spec, degree)]
            pair_ints.append((tokens.setdefault(token, len(tokens)), spec.num_packets, horizon))
            self.pair_rate.append(spec.drop_rate)
            self.pair_label.append(spec.label)
            self.pair_abr.append(spec.abr_profile)
            labels.setdefault(spec.label, len(labels))
        self.tokens = list(tokens)
        self.label = np.array(
            [labels[label] for label in self.pair_label], dtype=np.int64
        )[self.pair]
        self.token, packets, full = np.array(pair_ints, dtype=np.int64).reshape(-1, 3)[self.pair].T
        # Score only the packets the watched prefix (at most the full
        # horizon) can carry.
        self.packets = np.maximum(1, packets * self.horizon // full)

    def __len__(self) -> int:
        return len(self.session_id)

    def units(self, lo: int, hi: int, workers: int) -> list[tuple]:
        """Tasks ``lo:hi`` as executor units: each token's tasks, in order,
        cut into one block per worker, tokens in the order of their first
        task.  No result depends on the unit order, but the kernel's speed
        does: its megabyte-sized temporaries reuse freed memory or fault in
        fresh pages depending on the sizes of the calls before them."""
        order = np.argsort(self.token[lo:hi], kind="stable")
        order += lo
        tokens = self.token[order]
        cuts = [0, *(np.flatnonzero(tokens[1:] != tokens[:-1]) + 1).tolist(), hi - lo]
        units: list[tuple] = []
        for head, start, stop in sorted(zip(order[cuts[:-1]].tolist(), cuts, cuts[1:])):
            token = self.tokens[self.token[head]]
            step = -(-(stop - start) // workers)
            units.extend(
                (token, self._members(order[at:min(stop, at + step)]))
                for at in range(start, stop, step)
            )
        return units

    def _members(self, rows: np.ndarray) -> tuple:
        """:func:`fleet_unit_task`'s member columns of task rows ``rows``."""
        pairs = self.pair[rows].tolist()
        profiles = [self.pair_abr[p] for p in pairs] if any(self.pair_abr) else []
        return (
            rows + self.base,
            self.session_id[rows],
            [self.pair_label[p] for p in pairs],
            [STATUSES[s] for s in self.status[rows].tolist()],
            self.seed[rows],
            self.wait[rows],
            [self.pair_rate[p] for p in pairs],
            self.packets[rows],
            self.horizon[rows],
            profiles if any(profiles) else None,
        )


class FleetRunner:
    """Execute fleet scenarios against a shared schedule cache.

    Args:
        cache: schedule cache shared across the fleet (a private in-process
            cache by default; pass a shared one to amortize across runs
            too).
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
    ) -> tuple[str, int]:
        """Compile one configuration through the shared cache.

        Returns ``(token, horizon)`` and tallies a miss.  ``run`` memoizes
        this per configuration and counts every other admission of it as a
        hit, so the fleet hit-rate counts one lookup per admitted session
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
        token = provenance["cache_token"]
        schedules[token] = schedule
        return token, schedule.num_slots

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
        compiled: dict[tuple, tuple[str, int]] = {}

        def horizon_of(spec: SessionSpec, degree: int) -> int:
            # Memoize per configuration for the run: admission asks for a
            # horizon once per admitted session, and even a warm
            # compile_schedule validates its arguments, builds and hashes
            # the key and counts a registry hit, where this is one lookup.
            key = _configuration(spec, degree)
            found = compiled.get(key)
            if found is None:
                found = compiled[key] = self._compile(spec, degree, schedules)
            return found[1]

        with span_scope(spans, "fleet.resolve"):
            sessions = fleet.resolve()
        kinds = list(sessions.kinds)
        manager = SessionManager(
            fleet.capacity,
            policy=fleet.policy,
            max_queue_slots=fleet.max_queue_slots,
            min_degree=fleet.min_degree,
            tracer=self.tracer,
        )
        control = (
            _ControlHook(fleet, manager, kinds, spans=spans, tracer=self.tracer)
            if fleet.controller is not None else None
        )
        # Each session's kind as admitted (a retune remaps it).
        kind_of = sessions.kind.copy() if control is not None else sessions.kind
        detector = (
            ConvergenceDetector(fleet.convergence)
            if fleet.convergence is not None else None
        )
        aggregator = FleetAggregator(keep_sessions=fleet.aggregation == "exact")
        executor = SweepExecutor(self.policy, registry=registry, spans=spans)
        workers = self.policy.resolved_workers()
        labels: dict[str, int] = {}  # label -> code, for the replay tally
        executed_labels: list[np.ndarray] = []
        last_run: dict | None = None
        current: _Tasks | None = None
        offered = 0  # tasks (admitted sessions, one schedule lookup each)
        executed = 0  # tasks executed so far
        last_session = -1  # session id of the last executed task
        units_run = 0
        windows = 0

        def on_result(index: int, scored: tuple[np.ndarray, SessionColumns]) -> None:
            """Fold one unit as it arrives: every fold is order-free."""
            task_indices, columns = scored
            aggregator.add_sessions(columns)
            if telemetry is not None and current is not None:
                telemetry.record_sessions(
                    columns, current.arrival[task_indices - current.base]
                )

        def execute_window(tasks: _Tasks, lo: int, hi: int) -> None:
            """Run tasks ``lo:hi`` (non-empty) of one epoch as one window."""
            nonlocal last_run, executed, last_session, units_run, windows
            units = tasks.units(lo, hi, workers)
            executor.map(
                fleet_unit_task, units, payload=schedules,
                on_result=on_result, collect=False,
            )
            last_run = dict(executor.last_run)
            executed = tasks.base + hi
            last_session = int(tasks.session_id[hi - 1])
            executed_labels.append(tasks.label[lo:hi])
            units_run += len(units)
            windows += 1

        def execute(tasks: _Tasks) -> bool:
            """Run every task of one epoch; True once the stop predicate fires."""
            lo = 0
            while lo < len(tasks):
                hi = len(tasks)
                if detector is not None:
                    hi = min(hi, lo + detector.criterion.check_every)
                execute_window(tasks, lo, hi)
                lo = hi
                if (
                    detector is not None
                    and detector.state(aggregator.startup_counts()).converged
                ):
                    return True
            return False

        size = len(sessions) if control is None else fleet.controller.epoch_sessions
        chunks = [sessions[lo:lo + size] for lo in range(0, len(sessions), size)]
        if control is not None:
            chunks.append(sessions[len(sessions):])  # drains the queue at the end
        made_all: list[DecisionTable] = []
        with use_registry(registry):
            manager.start()
            for number, chunk in enumerate(chunks, 1):
                if control is not None and len(chunk):
                    chunk = control.step(chunk)
                    kind_of[chunk.session_id] = chunk.kind
                with span_scope(spans, "fleet.admit", sessions=len(chunk)):
                    made = manager.admit_chunk(chunk, horizon_of)
                    if number == len(chunks):
                        made = DecisionTable.concat([made, manager.finalize(horizon_of)])
                made_all.append(made)
                current = _Tasks(
                    made, offered, sessions.seed, kind_of, kinds, compiled, labels
                )
                offered += len(current)
                before = aggregator.startup_counts()
                with span_scope(spans, "fleet.execute", tasks=len(current)):
                    stopped = execute(current)
                if control is not None:
                    control.close(chunk, made, aggregator.startup_counts() - before)
                if stopped:
                    break

            decisions = DecisionTable.concat(made_all).by_session()
            if executed < offered:
                # Early stop: the report covers exactly the executed arrival
                # prefix.  Admission of session i depends only on earlier
                # arrivals, so the prefix is self-consistent.
                decisions = decisions[decisions.session_id <= last_session]
            aggregator.add_decisions(decisions)
            if telemetry is not None:
                telemetry.record_decisions(decisions)
            self.cache_hits = offered - self.cache_misses
            with span_scope(spans, "fleet.aggregate", sessions=executed):
                report = aggregator.report(
                    cache_hits=self.cache_hits,
                    cache_misses=self.cache_misses,
                )
            registry.gauge(FLEET_CACHE_HIT_RATE).set(report.cache_hit_rate)
            if executed_labels:
                names = list(labels)
                codes, first, counts = np.unique(
                    np.concatenate(executed_labels),
                    return_index=True, return_counts=True,
                )
                for at in np.argsort(first).tolist():
                    registry.counter(
                        FLEET_SESSIONS_REPLAYED, label=names[codes[at]]
                    ).inc(int(counts[at]))
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
            decisions=decisions,
            sessions=sessions,
            executor_info=executor_info,
            telemetry=telemetry,
            convergence=(
                detector.state(aggregator.startup_counts())
                if detector is not None else None
            ),
            control_decisions=(
                tuple(control.plane.decisions) if control is not None else ()
            ),
            control_epochs=tuple(control.rows) if control is not None else (),
        )
