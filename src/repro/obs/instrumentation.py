"""The bundle instrumented components accept: registry + tracer + spans.

An :class:`Instrumentation` is what flows through the system
(``repro.run(spec, instrumentation=...)``, ``SimConfig.instrumentation``,
``repair_experiment(..., instrumentation=)``, CLI flags).  Every part is optional — components guard
each use — and ``None`` anywhere means zero overhead: the engine's hot loop
only ever pays a single ``is None`` check when instrumentation is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.obs.events import EventTracer, JsonlSink, RingBufferSink
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer

__all__ = ["Instrumentation"]


@dataclass
class Instrumentation:
    """Optional registry/tracer/spans trio handed to instrumented code.

    Attributes:
        registry: counters/gauges/histograms aggregation point.
        tracer: structured event stream (``None`` = no events).
        spans: records one span per engine phase (``None`` = no timing);
            :func:`~repro.obs.spans.span_rows` turns them into the
            per-phase table.
    """

    registry: MetricsRegistry | None = None
    tracer: EventTracer | None = None
    spans: SpanTracer | None = None

    @classmethod
    def collecting(
        cls,
        *,
        events_path: str | Path | None = None,
        ring_capacity: int | None = 4096,
        profile: bool = True,
        sample_rate: float = 1.0,
        sample_seed: int = 0,
    ) -> "Instrumentation":
        """A fully wired bundle: registry, tracer (JSONL and/or ring), spans.

        Args:
            events_path: write the event stream here as JSONL (``None`` = no
                file sink).
            ring_capacity: keep this many recent events in memory (``None`` =
                no ring sink).
            profile: attach a :class:`~repro.obs.spans.SpanTracer`.
            sample_rate: forward only this (deterministic, seeded) fraction
                of events to the sinks; per-name counts stay exact.
            sample_seed: seed of the sampling RNG.
        """
        sinks: list[JsonlSink | RingBufferSink] = []
        if events_path is not None:
            sinks.append(JsonlSink(events_path))
        if ring_capacity is not None:
            sinks.append(RingBufferSink(ring_capacity))
        return cls(
            registry=MetricsRegistry(),
            tracer=(
                EventTracer(*sinks, sample_rate=sample_rate, seed=sample_seed)
                if sinks else None
            ),
            spans=SpanTracer() if profile else None,
        )

    def ring_events(self) -> list:
        """Events held by the first ring-buffer sink (empty if none)."""
        if self.tracer is not None:
            for sink in self.tracer.sinks:
                if isinstance(sink, RingBufferSink):
                    return sink.events
        return []

    def close(self) -> None:
        """Flush and close any file-backed sinks."""
        if self.tracer is not None:
            self.tracer.close()
