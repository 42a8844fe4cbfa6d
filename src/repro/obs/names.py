"""Declared metric-name registry: the single source of truth for telemetry.

Every counter/gauge/histogram name the project emits is declared
here as a :class:`MetricSpec` — name, kind, label keys, and a one-line
description.  Emitters reference these declarations (directly or via the
exported name constants), docs tables are generated against them
(``docs/OBSERVABILITY.md``), and the REP006 static pass
(:mod:`repro.check.analyzers.metric_names`) cross-checks every emission
site in the tree against this registry, so a dashboard keyed on
``fleet.sessions{status=}`` can never silently diverge from the code.

Event names live in :data:`repro.obs.events.EVENT_SCHEMA` (they carry a
full payload schema, not just labels); :data:`EVENT_NAMES` re-exports the
name set for convenience.

Adding a metric is a two-line change: declare the :class:`MetricSpec`
here, then emit it.  Emitting an undeclared name fails ``repro lint``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import EVENT_SCHEMA

__all__ = [
    "EVENT_NAMES",
    "METRIC_NAMES",
    "METRIC_SPECS",
    "MetricSpec",
]

_KINDS = frozenset({"counter", "gauge", "histogram"})


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """One declared metric: its name, instrument kind, and label keys."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"metric kind must be one of {sorted(_KINDS)}, "
                f"got {self.kind!r} for {self.name!r}"
            )
        if not self.name:
            raise ValueError("metric name must be non-empty")


# Name constants for the emitters that reference the registry directly.
CONTROL_DECISIONS = "control.decisions"
CONTROL_EPOCHS = "control.epochs"
CONTROL_REPAIR_SWAPS = "control.repair_swaps"
FLEET_ABR_SESSIONS = "fleet.abr_sessions"
FLEET_CACHE_HIT_RATE = "fleet.cache_hit_rate"
FLEET_GOODPUT = "fleet.goodput"
FLEET_PEAK_BACKBONE = "fleet.peak_backbone"
FLEET_PEAK_FANOUT = "fleet.peak_fanout"
FLEET_QUEUE_DEPTH = "fleet.queue.depth"
FLEET_QUEUE_ENTERED = "fleet.queue.entered"
FLEET_QUEUE_WAIT = "fleet.queue_wait"
FLEET_REBUFFER_RATIO = "fleet.rebuffer_ratio"
FLEET_SESSIONS = "fleet.sessions"
FLEET_SESSIONS_COMPLETED = "fleet.sessions_completed"
FLEET_SESSIONS_REPLAYED = "fleet.sessions_replayed"
FLEET_STARTUP_DELAY = "fleet.startup_delay"

#: Every metric the project emits, one spec per name.
METRIC_SPECS: tuple[MetricSpec, ...] = (
    # --- engine (repro.core.engine): per-simulation traffic accounting
    MetricSpec("engine.runs", "counter", ("protocol",),
               "simulation runs completed"),
    MetricSpec("engine.slots", "counter", ("protocol",),
               "arrival slots simulated"),
    MetricSpec("engine.tx.sent", "counter", ("protocol",),
               "transmissions sent"),
    MetricSpec("engine.tx.dropped", "counter", ("protocol",),
               "transmissions lost to the drop process"),
    MetricSpec("engine.tx.delivered", "counter", ("protocol",),
               "transmissions delivered"),
    MetricSpec("engine.tx.throttled", "counter", ("protocol",),
               "transmissions deferred by degree throttling"),
    MetricSpec("engine.repairs.injected", "counter", ("protocol",),
               "repair transmissions injected"),
    # --- sweep/replay (repro.exec)
    MetricSpec("sweep.batch_sessions", "counter", ("scheme",),
               "sessions replayed through the batch kernel"),
    MetricSpec("sweep.batched_tx", "counter", ("scheme",),
               "transmissions up to the horizon, summed over batch sessions"),
    # --- executor (repro.exec.executor)
    MetricSpec("executor.fallbacks", "counter", (),
               "process-pool runs that fell back to serial"),
    MetricSpec("executor.fallback_errors", "counter", ("error",),
               "fallback causes by exception type"),
    # --- schedule cache (repro.exec.cache)
    MetricSpec("schedule_cache.hit", "counter", ("layer",),
               "schedule cache hits (layer=memory, the only layer)"),
    MetricSpec("schedule_cache.miss", "counter", (),
               "schedule cache misses"),
    MetricSpec("schedule_cache.invalidate", "counter", (),
               "schedule cache invalidations"),
    # --- ABR (repro.abr)
    MetricSpec("abr.sessions", "counter", ("profile",),
               "ABR sessions simulated"),
    MetricSpec("abr.chunks", "counter", ("profile",),
               "ABR chunks fetched"),
    MetricSpec("abr.session_slots", "histogram", ("profile",),
               "per-session slot counts"),
    MetricSpec("abr.qoe_sessions", "counter", ("tier",),
               "sessions scored, by QoE tier"),
    MetricSpec("abr.rebuffer_events", "counter", ("profile",),
               "rebuffer events across sessions"),
    MetricSpec("abr.rebuffer_slots", "histogram", ("profile",),
               "per-session rebuffer slot counts"),
    MetricSpec("abr.mean_bitrate", "histogram", ("profile",),
               "per-session mean bitrate"),
    MetricSpec("abr.sweep_points", "counter", ("profile",),
               "ABR sweep grid points evaluated"),
    # --- control plane (repro.control)
    MetricSpec(CONTROL_EPOCHS, "counter", (),
               "control epochs executed"),
    MetricSpec(CONTROL_DECISIONS, "counter", ("controller", "action"),
               "control decisions by controller and action"),
    MetricSpec(CONTROL_REPAIR_SWAPS, "counter", (),
               "repair-protocol swaps applied"),
    # --- fleet service (repro.service)
    MetricSpec(FLEET_SESSIONS, "counter", ("status",),
               "admission outcomes by status"),
    MetricSpec(FLEET_QUEUE_ENTERED, "counter", (),
               "sessions that entered the admission queue"),
    MetricSpec(FLEET_QUEUE_DEPTH, "gauge", (),
               "current admission queue depth"),
    MetricSpec(FLEET_QUEUE_WAIT, "histogram", (),
               "admission queue wait, in arrival slots"),
    MetricSpec(FLEET_SESSIONS_COMPLETED, "counter", (),
               "fleet sessions that completed a window"),
    MetricSpec(FLEET_PEAK_FANOUT, "gauge", (),
               "peak per-node fanout across the fleet"),
    MetricSpec(FLEET_PEAK_BACKBONE, "gauge", (),
               "peak backbone load across the fleet"),
    MetricSpec(FLEET_ABR_SESSIONS, "counter", ("tier",),
               "fleet ABR sessions by QoE tier"),
    MetricSpec(FLEET_SESSIONS_REPLAYED, "counter", ("label",),
               "fleet sessions replayed, by compile label"),
    MetricSpec(FLEET_STARTUP_DELAY, "histogram", (),
               "per-session startup delay (FleetTelemetry series)"),
    MetricSpec(FLEET_REBUFFER_RATIO, "histogram", (),
               "per-session rebuffer ratio (FleetTelemetry series)"),
    MetricSpec(FLEET_CACHE_HIT_RATE, "gauge", (),
               "fleet-window schedule-cache hit rate"),
    MetricSpec(FLEET_GOODPUT, "histogram", (),
               "per-session goodput (FleetTelemetry series)"),
    # --- static analysis (repro.check)
    MetricSpec("check.violations", "counter", ("rule",),
               "schedule-contract violations by rule"),
)

#: name -> spec, for lookup and for the REP006 cross-check.
METRIC_NAMES: dict[str, MetricSpec] = {
    spec.name: spec for spec in METRIC_SPECS
}

#: Declared event names (the schema itself lives in repro.obs.events).
EVENT_NAMES: frozenset[str] = frozenset(EVENT_SCHEMA)

if len(METRIC_NAMES) != len(METRIC_SPECS):
    raise ValueError("duplicate metric name declared in METRIC_SPECS")
