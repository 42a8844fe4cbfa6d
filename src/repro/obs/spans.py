"""Span tracing: engine phases and the resolve -> admit -> replay ->
aggregate fleet pipeline.

A :class:`SpanTracer` records named, timed spans with ``trace_id`` /
``span_id`` / ``parent_id`` linkage.  Nested :meth:`SpanTracer.span`
scopes parent automatically through a per-tracer stack.  Spans carry a
wall-clock start (for cross-process alignment in Chrome's trace viewer)
and a ``perf_counter``-measured duration (monotonic, immune to clock
steps), plus free-form ``attrs``.

**Cross-process spans.**  The sweep executor ships a *span context*
(``trace_id`` + parent span id) to workers through its initializer
(:func:`install_span_context`).  Worker code wraps task execution in
:func:`worker_span`; :func:`drain_worker_spans` pops the recorded span
dicts so the executor can piggy-back them on registry snapshots and the
parent tracer can :meth:`SpanTracer.adopt` them.  With no context
installed, :func:`worker_span` is a no-op — zero overhead off.

Span ids embed the process id, so ids minted concurrently in pool
workers never collide.  Export to Chrome's ``chrome://tracing`` /
Perfetto JSON via :func:`repro.reporting.export.write_chrome_trace_json`.

**Aggregation.**  :func:`span_rows` folds spans into one row per name
(calls, total, self time, mean, max, share): the table ``--profile`` and
``repro stats`` print, and the metrics-JSON ``profile`` key.  The engine
opens one span per phase through :func:`span_scope`, the shared
span-or-no-op scope.

This is the only module in ``src`` that reads ``perf_counter``: spans
record durations and :class:`Timer` is the one stopwatch.
:func:`wall_time_s` re-exports ``time.time`` so other layers can
timestamp ledger records without tripping lint rule REP002.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterable, Iterator

__all__ = [
    "Span",
    "SpanTracer",
    "SPAN_SCHEMA",
    "Timer",
    "drain_worker_spans",
    "install_span_context",
    "span_rows",
    "span_scope",
    "wall_time_s",
    "worker_span",
]

#: Keys every serialized span dict carries, in order.
SPAN_SCHEMA = (
    "name", "trace_id", "span_id", "parent_id",
    "start_s", "dur_s", "pid", "attrs",
)


def wall_time_s() -> float:
    """Current wall-clock time in seconds (the sanctioned REP002 read)."""
    return time.time()


class Timer:
    """One-shot stopwatch, for code that asserts on one measured interval::

        with Timer() as t:
            work()
        assert t.elapsed < bound
    """

    __slots__ = ("start", "elapsed")

    def __init__(self) -> None:
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> Timer:
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self.start


@dataclass(frozen=True, slots=True)
class Span:
    """One finished span."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_s: float
    dur_s: float
    pid: int
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in SPAN_SCHEMA}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(**{key: payload[key] for key in SPAN_SCHEMA})


class SpanTracer:
    """Records spans for one trace.

    Args:
        trace_id: explicit trace id; defaults to a pid + wall-clock-derived
            id unique enough for ledger correlation.
    """

    __slots__ = ("trace_id", "finished", "_stack", "_next")

    def __init__(self, trace_id: str | None = None) -> None:
        if trace_id is None:
            trace_id = f"t{os.getpid():x}-{int(wall_time_s() * 1e6):x}"
        self.trace_id = trace_id
        self.finished: list[Span] = []
        self._stack: list[str] = []
        self._next = 1

    def _new_span_id(self) -> str:
        span_id = f"s{os.getpid():x}-{self._next}"
        self._next += 1
        return span_id

    @property
    def current_span_id(self) -> str | None:
        """Innermost open span id (parent for new children), if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self, name: str, *, parent_id: str | None = None, **attrs: Any
    ) -> Iterator[str]:
        """Open a span scope; yields the new span id.

        Parents to the innermost open span unless ``parent_id`` is given.
        The span is recorded on scope exit, even if the body raises.
        """
        span_id = self._new_span_id()
        if parent_id is None:
            parent_id = self.current_span_id
        start_wall = wall_time_s()
        start_perf = time.perf_counter()
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.finished.append(Span(
                name=name,
                trace_id=self.trace_id,
                span_id=span_id,
                parent_id=parent_id,
                start_s=start_wall,
                dur_s=time.perf_counter() - start_perf,
                pid=os.getpid(),
                attrs=dict(attrs),
            ))

    def adopt(self, spans: list[dict[str, Any]]) -> None:
        """Fold serialized spans (e.g. drained from a worker) into this
        trace, rewriting their ``trace_id`` to match."""
        for payload in spans:
            span = Span.from_dict(payload)
            if span.trace_id != self.trace_id:
                span = Span(
                    name=span.name, trace_id=self.trace_id,
                    span_id=span.span_id, parent_id=span.parent_id,
                    start_s=span.start_s, dur_s=span.dur_s,
                    pid=span.pid, attrs=span.attrs,
                )
            self.finished.append(span)

    def context(self) -> dict[str, Any]:
        """Serializable context to ship to workers (initializer payload)."""
        return {"trace_id": self.trace_id, "parent_id": self.current_span_id}

    def to_dicts(self) -> list[dict[str, Any]]:
        """All finished spans as JSON-ready dicts, in completion order."""
        return [span.to_dict() for span in self.finished]

    def __len__(self) -> int:
        return len(self.finished)


#: Reusable no-op scope :func:`span_scope` hands out without a tracer.
_NO_SPAN = nullcontext()


def span_scope(
    tracer: SpanTracer | None, name: str, **attrs: Any
) -> ContextManager[Any]:
    """``tracer.span(name, **attrs)``, or a shared no-op scope when
    ``tracer`` is None — so uninstrumented code pays one ``None`` check."""
    if tracer is None:
        return _NO_SPAN
    return tracer.span(name, **attrs)


def span_rows(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """One row per span name, slowest self time first.

    Each row holds ``name``, ``calls``, ``total_s`` (summed durations),
    ``self_s`` (summed durations minus each span's direct children),
    ``mean_us``, ``max_us`` and ``share_pct`` — the name's percentage of the
    summed self time, so the shares of all rows add up to 100.
    """
    spans = list(spans)
    children_s: dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children_s[span.parent_id] = (
                children_s.get(span.parent_id, 0.0) + span.dur_s
            )
    # name -> [calls, total, self, max]
    stats: dict[str, list[float]] = {}
    for span in spans:
        row = stats.get(span.name)
        if row is None:
            row = stats[span.name] = [0, 0.0, 0.0, 0.0]
        row[0] += 1
        row[1] += span.dur_s
        row[2] += span.dur_s - children_s.get(span.span_id, 0.0)
        row[3] = max(row[3], span.dur_s)
    self_total = sum(row[2] for row in stats.values()) or 1.0
    return [
        {
            "name": name,
            "calls": int(calls),
            "total_s": round(total, 6),
            "self_s": round(own, 6),
            "mean_us": round(total / calls * 1e6, 2),
            "max_us": round(peak * 1e6, 2),
            "share_pct": round(100 * own / self_total, 1),
        }
        for name, (calls, total, own, peak) in sorted(
            stats.items(), key=lambda item: -item[1][2]
        )
    ]


# -------------------------------------------------------- worker-side state
#
# Pool workers have no SpanTracer of their own; the executor initializer
# installs a context, worker code records through worker_span(), and the
# executor drains the buffer after each task to piggy-back spans on the
# registry snapshot.

_CONTEXT: dict[str, Any] | None = None
_BUFFER: list[dict[str, Any]] = []
_SEQ = 0


def install_span_context(context: dict[str, Any] | None) -> None:
    """Install (or clear, with ``None``) this process's span context."""
    global _CONTEXT
    # The span context/buffer are worker-process-local by design: installed
    # once by the pool initializer, drained by the task wrapper, and merged
    # in the parent.  Nothing here is shared across processes.
    _CONTEXT = context  # repro-lint: disable=REP005 -- per-process span slot
    _BUFFER.clear()  # repro-lint: disable=REP005 -- per-process span buffer


@contextmanager
def worker_span(name: str, **attrs: Any) -> Iterator[None]:
    """Record a span in the installed worker context; no-op without one."""
    if _CONTEXT is None:
        yield
        return
    global _SEQ
    # Worker-local counter: span ids embed the pid, so per-process
    # sequences cannot collide after the parent merges the buffers.
    _SEQ += 1  # repro-lint: disable=REP005 -- per-process span sequence
    span_id = f"w{os.getpid():x}-{_SEQ}"
    start_wall = wall_time_s()
    start_perf = time.perf_counter()
    try:
        yield
    finally:
        # repro-lint: disable is line-scoped; the buffer is drained and
        # returned to the parent by drain_worker_spans below.
        _BUFFER.append(Span(  # repro-lint: disable=REP005 -- per-process buffer
            name=name,
            trace_id=_CONTEXT["trace_id"],
            span_id=span_id,
            parent_id=_CONTEXT.get("parent_id"),
            start_s=start_wall,
            dur_s=time.perf_counter() - start_perf,
            pid=os.getpid(),
            attrs=dict(attrs),
        ).to_dict())


def drain_worker_spans() -> list[dict[str, Any]]:
    """Pop every span recorded since the last drain (worker-side)."""
    spans = list(_BUFFER)
    _BUFFER.clear()  # repro-lint: disable=REP005 -- drain of per-process buffer
    return spans
