"""The object admission loop, kept as the reference for the columnar one.

This is :class:`repro.service.admission.SessionManager` as it was before
admission became columnar: one :class:`~repro.service.spec.ResolvedSession`
in, one :class:`~repro.service.admission.AdmissionDecision` out, a
``duration_of(session, degree)`` callback for each admitted session's
horizon.  ``tests/test_service_admission.py`` holds the columnar manager
equal to it in decisions, exact-float peak gauges, ``session_*`` events and
registry counters.  Nothing in ``src`` imports it.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from collections.abc import Callable, Sequence

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
from repro.service.admission import AdmissionDecision
from repro.service.spec import CapacityModel, ResolvedSession

__all__ = ["ReferenceSessionManager"]


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


class ReferenceSessionManager:
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
        #: Peak concurrent usage observed during the last :meth:`admit_all`.
        self.peak_fanout = 0.0
        self.peak_backbone = 0.0
        self._active: _Active | None = None
        self._queue: deque[ResolvedSession] = deque()
        self._last_slot = 0
        # Pending registry writes: terminal statuses (``queued`` is transit,
        # never terminal), sessions parked and the net queue-depth change.
        self._statuses: Counter[str] = Counter()
        self._entered = 0
        self._depth = 0

    # ------------------------------------------------------------------ hooks
    def _park(self, session: ResolvedSession, slot: int) -> None:
        self._queue.append(session)
        self._entered += 1
        self._depth += 1
        self._emit(SESSION_QUEUED, slot, session=session.session_id)

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
        session: ResolvedSession,
        slot: int,
        duration_of: Callable[[ResolvedSession, int], int],
    ) -> AdmissionDecision | None:
        """Admit at ``slot`` if it fits (degrading if the policy allows)."""
        active = self._active
        if active is None:
            raise ReproError("admission pass not started; call start() first")
        spec = session.spec
        degrees = [spec.degree]
        if self.policy == "degrade":
            degrees += list(range(spec.degree - 1, self.min_degree - 1, -1))
        for degree in degrees:
            fanout = spec.fanout_cost(degree)
            backbone = spec.backbone_cost()
            if not self.capacity.fits(active.fanout, active.backbone, fanout, backbone):
                continue
            duration = duration_of(session, degree)
            active.admit(slot + duration, fanout, backbone)
            degraded = degree != spec.degree
            status = "degraded" if degraded else "admitted"
            self._statuses[status] += 1
            wait = slot - session.arrival_slot
            if degraded:
                self._emit(
                    SESSION_DEGRADED, slot,
                    session=session.session_id, degree=degree,
                )
            self._emit(
                SESSION_ADMITTED, slot,
                session=session.session_id, wait=wait,
            )
            return AdmissionDecision(
                session_id=session.session_id,
                status=status,
                arrival_slot=session.arrival_slot,
                start_slot=slot,
                wait_slots=wait,
                degree=degree,
                duration=duration,
            )
        return None

    def _reject(
        self, session: ResolvedSession, slot: int, reason: str
    ) -> AdmissionDecision:
        self._statuses["rejected"] += 1
        self._emit(
            SESSION_REJECTED, slot,
            session=session.session_id, reason=reason,
        )
        return AdmissionDecision(
            session_id=session.session_id,
            status="rejected",
            arrival_slot=session.arrival_slot,
            start_slot=session.arrival_slot,
            wait_slots=0,
            degree=session.spec.degree,
            duration=0,
            reason=reason,
        )

    def _drain_queue(
        self,
        now: int,
        duration_of: Callable[[ResolvedSession, int], int],
        out: list[AdmissionDecision],
    ) -> None:
        """Admit queued sessions (FIFO) as departures free capacity.

        Advances a virtual clock through departures up to ``now``; a
        queued head whose wait would exceed the bound is rejected, and a
        head that still does not fit blocks the queue (FIFO fairness —
        no overtaking).
        """
        active = self._active
        if active is None:
            raise ReproError("admission pass not started; call start() first")
        queue = self._queue
        while queue:
            head = queue[0]
            slot = max(head.arrival_slot, active.next_departure() or head.arrival_slot)
            # Find the earliest departure slot <= now at which head fits.
            admitted = None
            while True:
                active.release_until(slot)
                if slot - head.arrival_slot > self.max_queue_slots:
                    break
                admitted = self._try_admit(head, slot, duration_of)
                if admitted is not None:
                    break
                nxt = active.next_departure()
                if nxt is None or nxt > now:
                    break
                slot = nxt
            if admitted is not None:
                out.append(admitted)
                self._unpark()
                continue
            if slot - head.arrival_slot > self.max_queue_slots:
                out.append(self._reject(head, slot, "queue_timeout"))
                self._unpark()
                continue
            break  # head still waiting inside its bound; keep FIFO order

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
        self,
        arrivals: Sequence[ResolvedSession],
        duration_of: Callable[[ResolvedSession, int], int],
    ) -> list[AdmissionDecision]:
        """Decide one arrival-ordered chunk of an in-progress pass.

        Returns every decision *made* while processing the chunk — which
        includes queue heads parked by earlier chunks that were admitted or
        timed out as this chunk's departures freed capacity.  Sessions left
        in the queue have no decision yet; they resolve in a later chunk or
        at :meth:`finalize`.
        """
        if self._active is None:
            raise ReproError("call start() before admit_chunk()")
        made: list[AdmissionDecision] = []
        try:
            for session in arrivals:
                slot = session.arrival_slot
                if slot < self._last_slot:
                    raise ReproError("arrivals must be sorted by arrival_slot")
                self._last_slot = slot
                self._active.release_until(slot)
                self._drain_queue(slot, duration_of, made)
                if self._queue:
                    # FIFO: a newcomer may not overtake a waiting session.
                    if self.policy == "queue":
                        self._park(session, slot)
                    else:
                        made.append(self._reject(session, slot, "capacity"))
                    continue
                decision = self._try_admit(session, slot, duration_of)
                if decision is not None:
                    made.append(decision)
                    continue
                if self.policy == "queue":
                    self._park(session, slot)
                else:
                    made.append(self._reject(session, slot, "capacity"))
        finally:
            self._flush()
        return made

    def finalize(
        self, duration_of: Callable[[ResolvedSession, int], int]
    ) -> list[AdmissionDecision]:
        """Resolve the remaining queue and publish peak gauges.

        All arrivals seen: the queue drains on departures alone; anything
        left could never fit even in an empty fleet and is rejected at its
        wait bound.
        """
        if self._active is None:
            raise ReproError("call start() before finalize()")
        made: list[AdmissionDecision] = []
        try:
            self._drain_queue(2**62, duration_of, made)
            while self._queue:
                head = self._queue[0]
                made.append(self._reject(
                    head, head.arrival_slot + self.max_queue_slots, "queue_timeout"
                ))
                self._unpark()
        finally:
            self._flush()
        active = self._active
        self.peak_fanout = active.peak_fanout
        self.peak_backbone = active.peak_backbone
        registry = active_registry()
        registry.gauge(FLEET_PEAK_FANOUT).set(active.peak_fanout)
        registry.gauge(FLEET_PEAK_BACKBONE).set(active.peak_backbone)
        self._active = None
        return made

    def admit_all(
        self,
        arrivals: Sequence[ResolvedSession],
        duration_of: Callable[[ResolvedSession, int], int],
    ) -> list[AdmissionDecision]:
        """Decide every session of an arrival-ordered fleet in one pass.

        Args:
            arrivals: resolved sessions sorted by ``arrival_slot``.
            duration_of: ``(session, degree) -> slots`` the session will hold
                capacity — the compiled horizon of its configuration (the
                runner resolves it through the schedule cache, so degraded
                degrees get their true horizon too).
        """
        self.start()
        made = self.admit_chunk(arrivals, duration_of)
        made += self.finalize(duration_of)
        by_id = {decision.session_id: decision for decision in made}
        return [by_id[s.session_id] for s in arrivals]
