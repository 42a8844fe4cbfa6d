"""repro.obs — the instrumentation layer: metrics, events, spans.

Three zero-dependency pieces, usable separately or bundled:

* :mod:`repro.obs.registry` — a metrics registry (counters, gauges,
  histograms with labels; snapshot/reset; process-safe merge for sweep
  workers);
* :mod:`repro.obs.events` — a structured event tracer with a fixed typed
  vocabulary and pluggable sinks (JSONL, in-memory ring buffer), plus replay
  helpers that rebuild arrival maps from a stream;
* :mod:`repro.obs.spans` — named, timed spans with trace/span/parent ids
  (one per engine phase; the fleet pipeline and its pool workers record
  theirs, Chrome-trace exportable), aggregated into per-name self-time
  rows, plus :class:`Timer`, the one stopwatch.  No other module in
  ``src`` reads a duration clock.

The fleet-telemetry extensions (see ``docs/TELEMETRY.md``) build on top:

* :mod:`repro.obs.quantiles` — the one nearest-rank rule
  (:func:`pooled_percentile`, :func:`value_at_rank`) over exact
  ``value -> count`` tables, which every fleet percentile reads;
* :mod:`repro.obs.timeseries` — tumbling-window counter/gauge/sketch
  series keyed by arrival slot (a sketch series is an exact table);
* :mod:`repro.obs.convergence` — online SLO-convergence detection
  (order-statistics CI half-width on a tracked quantile).

:class:`Instrumentation` bundles the original trio; pass it through
``repro.run(spec, instrumentation=...)`` (any experiment family),
``SimConfig.instrumentation`` (engine), ``repair_experiment`` (repair),
``churn_experiment`` (churn), or the CLI's ``--profile`` /
``--trace-events`` flags.  Everything is opt-in: with no bundle attached the
instrumented code paths cost a single ``None`` check.
"""

from repro.obs.events import (
    CHURN_APPLIED,
    EVENT_SCHEMA,
    GAP_DETECTED,
    PARITY_RECOVERED,
    PLAYBACK_STALL,
    REPAIR_INJECTED,
    REPAIR_SCHEDULED,
    RUN_END,
    RUN_START,
    SESSION_ADMITTED,
    SESSION_DEGRADED,
    SESSION_QUEUED,
    SESSION_REJECTED,
    SLOT_START,
    TX_DELIVERED,
    TX_DROPPED,
    TX_SENT,
    Event,
    EventSink,
    EventTracer,
    JsonlSink,
    RingBufferSink,
    arrivals_from_events,
    count_events,
    read_events_jsonl,
)
from repro.obs.convergence import (
    ConvergenceCriterion,
    ConvergenceDetector,
    ConvergenceState,
)
from repro.obs.instrumentation import Instrumentation
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    global_registry,
    use_registry,
)
from repro.obs.quantiles import pooled_percentile, value_at_rank
from repro.obs.spans import (
    SPAN_SCHEMA,
    Span,
    SpanTracer,
    Timer,
    drain_worker_spans,
    install_span_context,
    span_rows,
    span_scope,
    wall_time_s,
    worker_span,
)
from repro.obs.timeseries import TimeSeries, WindowStats

__all__ = [
    "CHURN_APPLIED",
    "ConvergenceCriterion",
    "ConvergenceDetector",
    "ConvergenceState",
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENT_SCHEMA",
    "Event",
    "EventSink",
    "EventTracer",
    "GAP_DETECTED",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonlSink",
    "MetricsRegistry",
    "PARITY_RECOVERED",
    "PLAYBACK_STALL",
    "REPAIR_INJECTED",
    "REPAIR_SCHEDULED",
    "RUN_END",
    "RUN_START",
    "RingBufferSink",
    "SESSION_ADMITTED",
    "SESSION_DEGRADED",
    "SESSION_QUEUED",
    "SESSION_REJECTED",
    "SLOT_START",
    "SPAN_SCHEMA",
    "Span",
    "SpanTracer",
    "TX_DELIVERED",
    "TX_DROPPED",
    "TX_SENT",
    "TimeSeries",
    "Timer",
    "WindowStats",
    "active_registry",
    "arrivals_from_events",
    "count_events",
    "drain_worker_spans",
    "global_registry",
    "install_span_context",
    "pooled_percentile",
    "read_events_jsonl",
    "span_rows",
    "span_scope",
    "use_registry",
    "value_at_rank",
    "wall_time_s",
    "worker_span",
]
