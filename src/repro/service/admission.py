"""Admission control: which sessions run, when, and at what degree.

The :class:`SessionManager` walks a fleet's arrival sequence in slot order and
tracks the shared-infrastructure usage of all concurrently active sessions
against the :class:`~repro.service.spec.CapacityModel` — source fan-out units
and backbone receiver units, both scaled by each session's repair slack
factor.  A session that fits starts at its arrival slot; one that does not is
handled by the fleet's policy:

* ``reject`` — turned away immediately (counts into the reject-rate SLO);
* ``queue``  — parked FIFO and admitted at the first departure that frees
  enough capacity, unless the wait would exceed ``max_queue_slots``
  (the wait is charged to the session's startup-delay SLO);
* ``degrade`` — retried at successively smaller degrees down to
  ``min_degree`` (a smaller ``d`` costs less fan-out; the paper's Figure 4
  shows small degrees also have the *better* delay, so a degrade is a
  cheap admission, not a quality cliff).

Admission reads a :class:`~repro.service.spec.SessionTable` and writes a
:class:`DecisionTable`: NumPy columns in decision order, with
:class:`AdmissionDecision` as the row type built only on access.  Sessions
can be fed all at once (:meth:`SessionManager.admit_all`) or in
arrival-ordered chunks (:meth:`start` / :meth:`admit_chunk` /
:meth:`finalize`) — the chunked form is the control plane's epoch loop,
which may move ``policy`` and ``max_queue_slots`` between chunks.  A
``horizon_of(spec, degree)`` callback gives the compiled horizon of an
admitted configuration; a churned session holds capacity for its watched
prefix only (:func:`watched_slots`).

A chunk that no budget can bind — the queue is empty and the chunk's summed
costs, plus the current usage and a float-rounding margin, fit both budgets
— is admitted with array operations: every session starts at its arrival
slot at its own degree, and one sweep over the admit and release events, in
the loop's exact order, gives the peak gauges and the active set the loop
would leave.  Any other chunk runs the sequential FIFO loop over the
columns' Python scalars.

Each session lands on exactly one **terminal** status, counted once in
``fleet.sessions{status=admitted|degraded|rejected}`` on the active metrics
registry (a queued-then-rejected session is one ``rejected``, not a
``queued`` plus a ``rejected``).  Queue transit is observable separately:
``fleet.queue.entered`` counts every session that waited and the
``fleet.queue.depth`` gauge tracks the queue length; all three are written
once per :meth:`~SessionManager.admit_chunk` / :meth:`~SessionManager.finalize`
call.  Every decision also emits a ``session_*`` trace event when a tracer
is attached.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.core.errors import ReproError
from repro.obs.events import (
    EventTracer,
    SESSION_ADMITTED,
    SESSION_DEGRADED,
    SESSION_QUEUED,
    SESSION_REJECTED,
)
from repro.obs.names import (
    FLEET_PEAK_BACKBONE,
    FLEET_PEAK_FANOUT,
    FLEET_QUEUE_DEPTH,
    FLEET_QUEUE_ENTERED,
    FLEET_SESSIONS,
)
from repro.obs.registry import active_registry
from repro.service.spec import CapacityModel, ColumnTable, SessionSpec, SessionTable

__all__ = [
    "ADMITTED",
    "AdmissionDecision",
    "DEGRADED",
    "DecisionTable",
    "REASONS",
    "REJECTED",
    "STATUSES",
    "SessionManager",
    "watched_slots",
]

#: Decision status codes: ``DecisionTable.status`` indexes :data:`STATUSES`.
STATUSES = ("admitted", "degraded", "rejected")
ADMITTED, DEGRADED, REJECTED = range(3)
#: Reject reasons: ``DecisionTable.reason`` indexes :data:`REASONS`.
REASONS = ("", "capacity", "queue_timeout")
_CAPACITY, _QUEUE_TIMEOUT = 1, 2

#: ``horizon_of(spec, degree)``: slots a configuration's compiled schedule
#: spans (the runner resolves it through the schedule cache).
HorizonOf = Callable[[SessionSpec, int], int]


def watched_slots(horizon: int, leave_fraction: float) -> int:
    """Slots a session holds capacity for: the full ``horizon``, or for a
    churned viewer (``leave_fraction`` not NaN) its watched prefix."""
    if math.isnan(leave_fraction):
        return horizon
    return max(1, int(leave_fraction * horizon))


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome of admission control for one session (a decision-table row).

    Attributes:
        session_id: the session decided on.
        status: ``admitted``, ``rejected``, or ``degraded`` (degraded
            sessions are admitted at ``degree < requested``).
        arrival_slot: when the session asked to start.
        start_slot: when it actually starts (arrival slot for rejects).
        wait_slots: admission queue wait (``start - arrival``).
        degree: effective degree the session runs at.
        duration: slots the session holds capacity for (0 for rejects).
        reason: why a reject happened (``capacity`` or ``queue_timeout``).
    """

    session_id: int
    status: str
    arrival_slot: int
    start_slot: int
    wait_slots: int
    degree: int
    duration: int
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.status in ("admitted", "degraded")


class DecisionTable(ColumnTable):
    """Admission decisions as int64 NumPy columns, one per
    :class:`AdmissionDecision` field; ``status`` and ``reason`` hold codes
    into :data:`STATUSES` and :data:`REASONS`."""

    __slots__ = (
        "session_id", "status", "arrival_slot", "start_slot", "wait_slots",
        "degree", "duration", "reason",
    )
    _columns = __slots__

    def __init__(self, *columns: npt.ArrayLike) -> None:
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, np.asarray(column, dtype=np.int64))

    def _row(
        self, session_id: int, status: int, arrival_slot: int, start_slot: int,
        wait_slots: int, degree: int, duration: int, reason: int,
    ) -> AdmissionDecision:
        return AdmissionDecision(
            session_id, STATUSES[status], arrival_slot, start_slot,
            wait_slots, degree, duration, REASONS[reason],
        )

    @classmethod
    def concat(cls, tables: Sequence[DecisionTable]) -> DecisionTable:
        """The rows of ``tables`` in order."""
        if len(tables) == 1:
            return tables[0]
        return cls(*(
            np.concatenate([getattr(t, name) for t in tables]) if tables else ()
            for name in cls.__slots__
        ))

    def by_session(self) -> DecisionTable:
        """The rows sorted by session id."""
        return self[np.argsort(self.session_id, kind="stable")]


def _made_table(made: list[int]) -> DecisionTable:
    """The decisions ``made`` holds as eight ints each, in field order."""
    columns = np.array(made, dtype=np.int64).reshape(-1, len(DecisionTable.__slots__))
    return DecisionTable(*np.ascontiguousarray(columns.T))


class _Active:
    """Mutable ledger of concurrently active sessions (a min-heap on end slot)."""

    __slots__ = ("ends", "fanout", "backbone", "peak_fanout", "peak_backbone")

    def __init__(self) -> None:
        self.ends: list[tuple[int, float, float]] = []
        self.fanout = 0.0
        self.backbone = 0.0
        self.peak_fanout = 0.0
        self.peak_backbone = 0.0

    def admit(self, end_slot: int, fanout: float, backbone: float) -> None:
        heapq.heappush(self.ends, (end_slot, fanout, backbone))
        self.fanout += fanout
        self.backbone += backbone
        self.peak_fanout = max(self.peak_fanout, self.fanout)
        self.peak_backbone = max(self.peak_backbone, self.backbone)

    def release_until(self, slot: int) -> None:
        """Free every session whose end slot is ``<= slot``."""
        while self.ends and self.ends[0][0] <= slot:
            _, fanout, backbone = heapq.heappop(self.ends)
            self.fanout -= fanout
            self.backbone -= backbone

    def next_departure(self) -> int | None:
        return self.ends[0][0] if self.ends else None

    def sweep(
        self,
        slots: npt.NDArray[np.int64],
        ends: npt.NDArray[np.int64],
        fanout: npt.NDArray[np.float64],
        backbone: npt.NDArray[np.float64],
    ) -> None:
        """Admit one session per row at ``slots`` (sorted) without a check,
        leaving the ledger exactly as :meth:`release_until` then
        :meth:`admit` per row would.

        A session (held or new) is released at the first arrival slot
        ``>= its end``, before that row's admit, and the releases of one
        row go in heap order, ``(end, fanout, backbone)``.  A cumulative
        sum over the events in that order, starting at the current usage,
        repeats the loop's running float values exactly.
        """
        held = np.array(self.ends, dtype=np.float64).reshape(-1, 3)
        all_ends = np.concatenate((held[:, 0].astype(np.int64), ends))
        all_fanout = np.concatenate((held[:, 1], fanout))
        all_backbone = np.concatenate((held[:, 2], backbone))
        release_row = np.searchsorted(slots, all_ends, side="left")
        released = np.flatnonzero(release_row < len(slots))
        rows = len(slots)
        # Event keys, most significant last: the row, then releases (0)
        # before the admit (1), then heap order among one row's releases.
        order = np.lexsort((
            np.concatenate((all_backbone[released], backbone)),
            np.concatenate((all_fanout[released], fanout)),
            np.concatenate((all_ends[released], ends)),
            np.concatenate((np.zeros(len(released)), np.ones(rows))),
            np.concatenate((release_row[released], np.arange(rows))),
        ))
        admits = order >= len(released)
        for name, column, peak in (
            ("fanout", np.concatenate((-all_fanout[released], fanout)), "peak_fanout"),
            ("backbone", np.concatenate((-all_backbone[released], backbone)), "peak_backbone"),
        ):
            running = np.cumsum(np.concatenate(([getattr(self, name)], column[order])))
            setattr(self, name, float(running[-1]))
            setattr(self, peak, max(getattr(self, peak), float(running[1:][admits].max())))
        kept = np.flatnonzero(release_row == len(slots))
        self.ends = sorted(zip(
            all_ends[kept].tolist(), all_fanout[kept].tolist(), all_backbone[kept].tolist()
        ))


class SessionManager:
    """Admit a fleet's sessions against a capacity model.

    Args:
        capacity: the shared budgets.
        policy: ``reject`` / ``queue`` / ``degrade``.  Mutable between
            chunks — the control plane's SLO controller moves it along the
            escalation ladder mid-run.
        max_queue_slots: queue-policy wait bound (also mutable between
            chunks).
        min_degree: degrade-policy floor.
        tracer: optional :class:`~repro.obs.EventTracer` for ``session_*``
            events (admission decisions are slot-stamped).
    """

    def __init__(
        self,
        capacity: CapacityModel,
        *,
        policy: str = "queue",
        max_queue_slots: int = 64,
        min_degree: int = 2,
        tracer: EventTracer | None = None,
    ) -> None:
        if policy not in ("reject", "queue", "degrade"):
            raise ReproError(f"unknown admission policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.max_queue_slots = max_queue_slots
        self.min_degree = min_degree
        self.tracer = tracer
        #: Peak concurrent usage observed during the last pass.
        self.peak_fanout = 0.0
        self.peak_backbone = 0.0
        self._active: _Active | None = None
        # Parked sessions: ``(session_id, spec, arrival_slot, leave_fraction)``.
        self._queue: deque[tuple[int, SessionSpec, int, float]] = deque()
        self._last_slot = 0
        # Pending registry writes: terminal statuses (``queued`` is transit,
        # never terminal), sessions parked and the net queue-depth change.
        self._statuses: Counter[str] = Counter()
        self._entered = 0
        self._depth = 0

    # ------------------------------------------------------------------ hooks
    def _park(self, entry: tuple[int, SessionSpec, int, float], slot: int) -> None:
        self._queue.append(entry)
        self._entered += 1
        self._depth += 1
        self._emit(SESSION_QUEUED, slot, session=entry[0])

    def _unpark(self) -> None:
        self._queue.popleft()
        self._depth -= 1

    def _flush(self) -> None:
        """Write the pending counts to the active registry."""
        registry = active_registry()
        for status, count in self._statuses.items():
            registry.counter(FLEET_SESSIONS, status=status).inc(count)
        if self._entered:
            registry.counter(FLEET_QUEUE_ENTERED).inc(self._entered)
        if self._entered or self._depth:
            registry.gauge(FLEET_QUEUE_DEPTH).add(self._depth)
        self._statuses.clear()
        self._entered = self._depth = 0

    def _emit(self, name: str, slot: int, **fields: object) -> None:
        if self.tracer is not None:
            self.tracer.emit(name, slot, **fields)

    # -------------------------------------------------------------- internals
    def _try_admit(
        self,
        session_id: int,
        spec: SessionSpec,
        arrival_slot: int,
        leave_fraction: float,
        slot: int,
        horizon_of: HorizonOf,
        out: list[int],
    ) -> bool:
        """Admit at ``slot`` if it fits (degrading if the policy allows)."""
        active = self._active
        if active is None:
            raise ReproError("admission pass not started; call start() first")
        degrees = [spec.degree]
        if self.policy == "degrade":
            degrees += list(range(spec.degree - 1, self.min_degree - 1, -1))
        for degree in degrees:
            fanout = spec.fanout_cost(degree)
            backbone = spec.backbone_cost()
            if not self.capacity.fits(active.fanout, active.backbone, fanout, backbone):
                continue
            duration = watched_slots(horizon_of(spec, degree), leave_fraction)
            active.admit(slot + duration, fanout, backbone)
            degraded = degree != spec.degree
            self._statuses["degraded" if degraded else "admitted"] += 1
            wait = slot - arrival_slot
            if degraded:
                self._emit(SESSION_DEGRADED, slot, session=session_id, degree=degree)
            self._emit(SESSION_ADMITTED, slot, session=session_id, wait=wait)
            out.extend((
                session_id, DEGRADED if degraded else ADMITTED,
                arrival_slot, slot, wait, degree, duration, 0,
            ))
            return True
        return False

    def _reject(
        self,
        session_id: int,
        spec: SessionSpec,
        arrival_slot: int,
        slot: int,
        reason: int,
        out: list[int],
    ) -> None:
        self._statuses["rejected"] += 1
        self._emit(SESSION_REJECTED, slot, session=session_id, reason=REASONS[reason])
        out.extend((session_id, REJECTED, arrival_slot, arrival_slot, 0, spec.degree, 0, reason))

    def _drain_queue(self, now: int, horizon_of: HorizonOf, out: list[int]) -> None:
        """Admit queued sessions (FIFO) as departures free capacity.

        Advances a virtual clock through departures up to ``now``; a
        queued head whose wait would exceed the bound is rejected, and a
        head that still does not fit blocks the queue (FIFO fairness —
        no overtaking).  The clock starts at the head's next departure even
        when that lies after ``now``, so a head can be admitted at a future
        slot while a newcomer at ``now`` is checked against an active set
        that already released the departing session; with no session
        active it starts at the head's arrival, so a head can be admitted
        back in the past with no wait.  Both are kept as they are: fleet
        outputs and the control plane's results rest on them.
        """
        active = self._active
        if active is None:
            raise ReproError("admission pass not started; call start() first")
        queue = self._queue
        while queue:
            session_id, spec, arrival, fraction = queue[0]
            slot = max(arrival, active.next_departure() or arrival)
            # Find the earliest departure slot <= now at which head fits.
            admitted = False
            while True:
                active.release_until(slot)
                if slot - arrival > self.max_queue_slots:
                    break
                admitted = self._try_admit(
                    session_id, spec, arrival, fraction, slot, horizon_of, out
                )
                if admitted:
                    break
                nxt = active.next_departure()
                if nxt is None or nxt > now:
                    break
                slot = nxt
            if admitted:
                self._unpark()
                continue
            if slot - arrival > self.max_queue_slots:
                self._reject(session_id, spec, arrival, slot, _QUEUE_TIMEOUT, out)
                self._unpark()
                continue
            break  # head still waiting inside its bound; keep FIFO order

    def _unbound(self, active: _Active, arrivals: SessionTable) -> np.ndarray | None:
        """Per-kind ``(fanout, backbone)`` costs when no budget can bind
        during ``arrivals``, else None.

        No budget can bind when the queue is empty, the slots are sorted,
        and the chunk's summed costs plus the current usage fit both
        budgets with a margin for the rounding of the loop's running float
        sums.
        """
        rows = len(arrivals)
        if not rows or self._queue:
            return None
        kinds = arrivals.kinds
        costs = np.array(
            [(spec.fanout_cost(), spec.backbone_cost()) for spec in kinds],
            dtype=np.float64,
        )
        fanout, backbone = (np.bincount(arrivals.kind, minlength=len(kinds)) @ costs).tolist()
        # Every running value is at most usage + summed cost, each of at
        # most ``operations`` float adds and subtracts rounds by half an
        # ulp of it, and the sums above round once per kind.
        operations = 2 * (rows + len(active.ends) + len(kinds)) + 4
        scale = operations * 2.0**-52
        if not self.capacity.fits(
            active.fanout, active.backbone,
            fanout + scale * (active.fanout + fanout),
            backbone + scale * (active.backbone + backbone),
        ):
            return None
        slots = arrivals.arrival_slot
        if slots[0] < self._last_slot or np.any(slots[1:] < slots[:-1]):
            return None
        return costs

    def _admit_unbound(
        self,
        active: _Active,
        arrivals: SessionTable,
        costs: np.ndarray,
        horizon_of: HorizonOf,
    ) -> DecisionTable:
        """Admit every row at its arrival slot and own degree."""
        kinds = arrivals.kinds
        kind = arrivals.kind
        present, first = np.unique(kind, return_index=True)
        horizons = np.zeros(len(kinds), dtype=np.int64)
        degrees = np.zeros(len(kinds), dtype=np.int64)
        # Compile in first-arrival order, as the loop would.
        for k in present[np.argsort(first)].tolist():
            spec = kinds[k]
            degrees[k] = spec.degree
            horizons[k] = horizon_of(spec, spec.degree)
        duration = horizons[kind]
        churned = np.flatnonzero(~np.isnan(arrivals.leave_fraction))
        if churned.size:
            duration[churned] = [
                watched_slots(horizon, fraction) for horizon, fraction in zip(
                    duration[churned].tolist(),
                    arrivals.leave_fraction[churned].tolist(),
                )
            ]
        slots = arrivals.arrival_slot
        costs = costs[kind]
        active.sweep(slots, slots + duration, costs[:, 0], costs[:, 1])
        self._last_slot = int(slots[-1])
        self._statuses["admitted"] += len(arrivals)
        if self.tracer is not None:
            for session_id, slot in zip(arrivals.session_id.tolist(), slots.tolist()):
                self.tracer.emit(SESSION_ADMITTED, slot, session=session_id, wait=0)
        zeros = np.zeros(len(arrivals), dtype=np.int64)
        return DecisionTable(
            arrivals.session_id, zeros, slots, slots, zeros, degrees[kind],
            duration, zeros,
        )

    # -------------------------------------------------------------------- api
    def start(self) -> None:
        """Begin a chunked admission pass (resets active/queue state)."""
        self._active = _Active()
        self._queue.clear()
        self._last_slot = 0

    @property
    def queued_count(self) -> int:
        """Sessions currently parked in the admission queue."""
        return len(self._queue)

    def admit_chunk(
        self, arrivals: SessionTable, horizon_of: HorizonOf
    ) -> DecisionTable:
        """Decide one arrival-ordered chunk of an in-progress pass.

        Returns every decision *made* while processing the chunk, in
        decision order — which includes queue heads parked by earlier
        chunks that were admitted or timed out as this chunk's departures
        freed capacity.  Sessions left in the queue have no decision yet;
        they resolve in a later chunk or at :meth:`finalize`.
        """
        active = self._active
        if active is None:
            raise ReproError("call start() before admit_chunk()")
        made: list[int] = []
        try:
            costs = self._unbound(active, arrivals)
            if costs is not None:
                return self._admit_unbound(active, arrivals, costs, horizon_of)
            kinds = arrivals.kinds
            for session_id, kind, slot, fraction in zip(
                arrivals.session_id.tolist(), arrivals.kind.tolist(),
                arrivals.arrival_slot.tolist(), arrivals.leave_fraction.tolist(),
            ):
                if slot < self._last_slot:
                    raise ReproError("arrivals must be sorted by arrival_slot")
                self._last_slot = slot
                active.release_until(slot)
                self._drain_queue(slot, horizon_of, made)
                spec = kinds[kind]
                if not self._queue and self._try_admit(
                    session_id, spec, slot, fraction, slot, horizon_of, made
                ):
                    continue
                # FIFO: a newcomer may not overtake a waiting session.
                if self.policy == "queue":
                    self._park((session_id, spec, slot, fraction), slot)
                else:
                    self._reject(session_id, spec, slot, slot, _CAPACITY, made)
        finally:
            self._flush()
        return _made_table(made)

    def finalize(self, horizon_of: HorizonOf) -> DecisionTable:
        """Resolve the remaining queue and publish peak gauges.

        All arrivals seen: the queue drains on departures alone; anything
        left could never fit even in an empty fleet and is rejected at its
        wait bound.
        """
        active = self._active
        if active is None:
            raise ReproError("call start() before finalize()")
        made: list[int] = []
        try:
            self._drain_queue(2**62, horizon_of, made)
            while self._queue:
                session_id, spec, arrival, _ = self._queue[0]
                self._reject(
                    session_id, spec, arrival, arrival + self.max_queue_slots,
                    _QUEUE_TIMEOUT, made,
                )
                self._unpark()
        finally:
            self._flush()
        self.peak_fanout = active.peak_fanout
        self.peak_backbone = active.peak_backbone
        registry = active_registry()
        registry.gauge(FLEET_PEAK_FANOUT).set(active.peak_fanout)
        registry.gauge(FLEET_PEAK_BACKBONE).set(active.peak_backbone)
        self._active = None
        return _made_table(made)

    def admit_all(
        self, arrivals: SessionTable, horizon_of: HorizonOf
    ) -> DecisionTable:
        """Decide every session of an arrival-ordered fleet in one pass.

        Args:
            arrivals: the sessions, sorted by ``arrival_slot``.
            horizon_of: ``(spec, degree) -> slots`` of the configuration's
                compiled schedule (the runner resolves it through the
                schedule cache, so degraded degrees get their true horizon
                too).

        Returns the decisions in the order of ``arrivals``.
        """
        self.start()
        made = DecisionTable.concat([
            self.admit_chunk(arrivals, horizon_of), self.finalize(horizon_of),
        ])
        ranked = made.by_session()
        return ranked[np.searchsorted(ranked.session_id, arrivals.session_id)]
