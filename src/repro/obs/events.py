"""Structured event tracing: typed engine/repair/workload events through sinks.

Instrumented components emit :class:`Event` records through an
:class:`EventTracer`; the tracer fans each event out to pluggable sinks
(:class:`JsonlSink` for durable streams, :class:`RingBufferSink` for
in-memory tails) and keeps a per-name count so cheap summaries never require
replaying the stream.

The vocabulary is fixed (see :data:`EVENT_SCHEMA`): every event carries the
slot it happened in plus the fields the schema names.  A JSONL stream is
self-describing — one object per line, ``{"event": ..., "slot": ..., ...}``
— and :func:`read_events_jsonl` / :func:`arrivals_from_events` rebuild the exact
per-node arrival maps the metrics layer consumes, so replayed counters can be
checked against :func:`repro.core.metrics.collect_repair_metrics` outputs.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.core.errors import ReproError, read_json

__all__ = [
    "SLOT_START",
    "RUN_START",
    "RUN_END",
    "TX_SENT",
    "TX_DROPPED",
    "TX_DELIVERED",
    "TX_THROTTLED",
    "REPAIR_INJECTED",
    "REPAIR_SCHEDULED",
    "GAP_DETECTED",
    "PARITY_RECOVERED",
    "PLAYBACK_STALL",
    "CHURN_APPLIED",
    "SESSION_ADMITTED",
    "SESSION_QUEUED",
    "SESSION_REJECTED",
    "SESSION_DEGRADED",
    "CONTROL_DECISION",
    "EVENT_SCHEMA",
    "Event",
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "EventTracer",
    "read_events_jsonl",
    "count_events",
    "arrivals_from_events",
]

# ------------------------------------------------------------- event names
RUN_START = "run_start"
RUN_END = "run_end"
SLOT_START = "slot_start"
TX_SENT = "tx_sent"
TX_DROPPED = "tx_dropped"
TX_DELIVERED = "tx_delivered"
TX_THROTTLED = "tx_throttled"
REPAIR_INJECTED = "repair_injected"
REPAIR_SCHEDULED = "repair_scheduled"
GAP_DETECTED = "gap_detected"
PARITY_RECOVERED = "parity_recovered"
PLAYBACK_STALL = "playback_stall"
CHURN_APPLIED = "churn_applied"
SESSION_ADMITTED = "session_admitted"
SESSION_QUEUED = "session_queued"
SESSION_REJECTED = "session_rejected"
SESSION_DEGRADED = "session_degraded"
CONTROL_DECISION = "control_decision"

#: Event name -> (emitter, field names).  The authoritative schema; documented
#: as a table in ``docs/OBSERVABILITY.md``.
EVENT_SCHEMA: dict[str, tuple[str, tuple[str, ...]]] = {
    RUN_START: ("engine", ("num_slots",)),
    RUN_END: ("engine", ("sent", "dropped", "delivered", "injected", "throttled")),
    SLOT_START: ("engine", ()),
    TX_SENT: ("engine", ("sender", "receiver", "packet", "latency")),
    TX_DROPPED: ("engine", ("sender", "receiver", "packet")),
    TX_DELIVERED: ("engine", ("sender", "receiver", "packet", "new")),
    TX_THROTTLED: ("engine", ("sender", "receiver", "packet")),
    REPAIR_INJECTED: ("engine", ("sender", "receiver", "packet")),
    REPAIR_SCHEDULED: ("repair", ("sender", "receiver", "packet", "attempt")),
    GAP_DETECTED: ("repair", ("node", "packet", "origin")),
    PARITY_RECOVERED: ("repair", ("node", "packet",)),
    PLAYBACK_STALL: ("playback", ("node", "packet")),
    CHURN_APPLIED: ("churn", ("kind", "node")),
    SESSION_ADMITTED: ("service", ("session", "wait")),
    SESSION_QUEUED: ("service", ("session",)),
    SESSION_REJECTED: ("service", ("session", "reason")),
    SESSION_DEGRADED: ("service", ("session", "degree")),
    CONTROL_DECISION: ("control", ("controller", "action", "epoch")),
}


@dataclass(frozen=True, slots=True)
class Event:
    """One structured trace event.

    Attributes:
        name: one of the :data:`EVENT_SCHEMA` keys.
        slot: the simulation slot the event belongs to.
        fields: schema-defined payload (plain JSON-serializable values).
    """

    name: str
    slot: int
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"event": self.name, "slot": self.slot, **self.fields}

    @classmethod
    def from_dict(cls, payload: dict) -> Event:
        """Rebuild from :meth:`to_dict` output; a missing or mistyped
        ``event`` / ``slot`` raises :class:`ReproError`."""
        fields = dict(payload)
        name, slot = fields.pop("event", None), fields.pop("slot", None)
        if not isinstance(name, str) or isinstance(slot, bool) or not isinstance(slot, int):
            raise ReproError(
                f"an event needs a string 'event' and an int 'slot', got {payload!r}"
            )
        return cls(name=name, slot=slot, fields=fields)


class EventSink:
    """Sink interface: override :meth:`emit`; :meth:`close` is optional."""

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; tracers call this from their own close."""


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events in memory.

    The cheap always-on sink: a stall investigation needs the tail of the
    stream, not all of it.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self.total_emitted = 0

    def emit(self, event: Event) -> None:
        self._events.append(event)
        self.total_emitted += 1

    @property
    def events(self) -> list[Event]:
        return list(self._events)


class JsonlSink(EventSink):
    """Appends one JSON object per event to a file (JSONL)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w", encoding="utf-8")
        self.lines_written = 0

    def emit(self, event: Event) -> None:
        self._fh.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._fh.write("\n")
        self.lines_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class EventTracer:
    """Builds events and fans each one out to every sink; tallies counts
    per name."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks: list[EventSink] = list(sinks)
        self.counts: TallyCounter[str] = TallyCounter()

    def add_sink(self, sink: EventSink) -> None:
        self.sinks.append(sink)

    def emit(self, name: str, slot: int, **fields: Any) -> None:
        self.counts[name] += 1
        event = Event(name=name, slot=slot, fields=fields)
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> EventTracer:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------- replay
def read_events_jsonl(path: str | Path) -> list[Event]:
    """Load a JSONL event stream written by :class:`JsonlSink`; a malformed
    line raises :class:`ReproError` naming the path and the line."""
    events: list[Event] = []
    for number, payload in read_json(path, "event stream", lines=True):
        try:
            events.append(Event.from_dict(payload))
        except ReproError as exc:
            raise ReproError(f"event stream {path} line {number}: {exc}") from exc
    return events


def count_events(events: Iterable[Event]) -> TallyCounter[str]:
    """Per-name tallies of an event stream (matches ``EventTracer.counts``)."""
    return TallyCounter(e.name for e in events)


def arrivals_from_events(events: Iterable[Event]) -> dict[int, dict[int, int]]:
    """Rebuild per-node arrival maps from ``tx_delivered`` events.

    Only first arrivals (``new=True``) count, mirroring the engine's
    first-arrival-wins delivery rule, so the result equals
    ``SimTrace.all_arrivals()`` for the instrumented run and can be fed
    straight into :func:`repro.core.metrics.collect_repair_metrics`.
    """
    arrivals: dict[int, dict[int, int]] = {}
    for event in events:
        if event.name != TX_DELIVERED or not event.fields.get("new"):
            continue
        node = event.fields["receiver"]
        arrivals.setdefault(node, {})[event.fields["packet"]] = event.slot
    return arrivals
