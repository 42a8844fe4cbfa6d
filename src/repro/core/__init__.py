"""Slotted-time streaming simulation substrate.

This subpackage implements the paper's communication model (Section 2): a
slot-synchronous network where ordinary receivers send and receive at most one
packet per slot, sources and super nodes have higher capacity, and links have
integer slot latencies.  Protocols plug into :class:`SlottedEngine` and are
validated against the model on every slot.
"""

from repro.core.buffer import PlaybackBuffer
from repro.core.client import (
    BufferStart,
    FixedStart,
    PlaybackClient,
    PlaybackRun,
    StartPolicy,
    WindowStart,
    replay,
)
from repro.core.engine import SimConfig, SimTrace, SlottedEngine, simulate
from repro.core.errors import (
    CausalityViolation,
    ConstraintViolation,
    ConstructionError,
    DuplicateDeliveryViolation,
    ReceiveCapacityViolation,
    ReproError,
    ScheduleError,
    SendCapacityViolation,
)
from repro.core.metrics import (
    LossyPlaybackSummary,
    RepairMetrics,
    SchemeMetrics,
    collect_metrics,
    collect_repair_metrics,
    summarize_lossy_playback,
    truncate_arrivals,
)
from repro.core.node import NodeState
from repro.core.packet import Transmission
from repro.core.playback import (
    PlaybackSummary,
    buffer_occupancy_series,
    buffer_peak,
    earliest_safe_start,
    hiccup_count,
    hiccup_packets,
    summarize_playback,
)
from repro.core.protocol import HoldingsView, StreamingProtocol

__all__ = [
    "BufferStart",
    "CausalityViolation",
    "ConstraintViolation",
    "ConstructionError",
    "DuplicateDeliveryViolation",
    "HoldingsView",
    "FixedStart",
    "LossyPlaybackSummary",
    "NodeState",
    "PlaybackBuffer",
    "PlaybackClient",
    "PlaybackRun",
    "PlaybackSummary",
    "ReceiveCapacityViolation",
    "RepairMetrics",
    "ReproError",
    "ScheduleError",
    "SchemeMetrics",
    "SendCapacityViolation",
    "SimConfig",
    "StartPolicy",
    "SimTrace",
    "SlottedEngine",
    "StreamingProtocol",
    "Transmission",
    "WindowStart",
    "buffer_occupancy_series",
    "buffer_peak",
    "collect_metrics",
    "collect_repair_metrics",
    "earliest_safe_start",
    "hiccup_count",
    "hiccup_packets",
    "replay",
    "simulate",
    "summarize_lossy_playback",
    "summarize_playback",
    "truncate_arrivals",
]
