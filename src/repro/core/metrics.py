"""Trace-level metrics: the paper's four QoS quantities, plus repair-aware ones.

Table 1 of the paper compares schemes on four axes — maximum playback delay,
average playback delay, buffer size, and number of neighbors.  This module
computes all four from a :class:`~repro.core.engine.SimTrace`.

The repair subsystem (:mod:`repro.repair`) extends the same trace-level
approach to lossy runs, where the paper's metrics are undefined (a node with
a permanent hole has no hiccup-free startup delay at all):
:func:`summarize_lossy_playback` scores playback over whatever arrived, and
:func:`collect_repair_metrics` aggregates the repair tradeoff curve —
residual loss, recovery latency distribution, goodput, and the effective
playback delay/buffer price paid for repair.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from statistics import mean

from repro.core.engine import SimTrace
from repro.core.playback import PlaybackSummary, summarize_playback

__all__ = [
    "SchemeMetrics",
    "collect_metrics",
    "truncate_arrivals",
    "LossyPlaybackSummary",
    "summarize_lossy_playback",
    "RepairMetrics",
    "collect_repair_metrics",
    "QoEMetrics",
    "collect_qoe",
]


def __getattr__(name: str):
    # Lazy re-export: the ABR subsystem's QoE metrics belong in the metrics
    # namespace, but importing repro.abr here eagerly would cycle (abr's
    # capacity hook imports the engine, which this module imports too).
    if name in ("QoEMetrics", "collect_qoe"):
        from repro.abr import qoe

        return getattr(qoe, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, slots=True)
class SchemeMetrics:
    """Aggregate QoS metrics for one simulated scheme (one Table 1 row).

    Attributes:
        num_nodes: receivers measured.
        max_startup_delay: worst-case playback delay over nodes (slots).
        avg_startup_delay: mean playback delay over nodes (slots).
        max_buffer: worst-case peak buffer occupancy over nodes (packets).
        avg_buffer: mean peak buffer occupancy over nodes (packets).
        max_neighbors: worst-case distinct-counterparty count over nodes.
        avg_neighbors: mean distinct-counterparty count over nodes.
        per_node: node id -> :class:`PlaybackSummary`.
    """

    num_nodes: int
    max_startup_delay: int
    avg_startup_delay: float
    max_buffer: int
    avg_buffer: float
    max_neighbors: int
    avg_neighbors: float
    per_node: dict[int, PlaybackSummary]

    def row(self) -> dict[str, float]:
        """Flat dict for table rendering (drops per-node detail)."""
        return {
            "num_nodes": self.num_nodes,
            "max_delay": self.max_startup_delay,
            "avg_delay": round(self.avg_startup_delay, 3),
            "max_buffer": self.max_buffer,
            "avg_buffer": round(self.avg_buffer, 3),
            "max_neighbors": self.max_neighbors,
            "avg_neighbors": round(self.avg_neighbors, 3),
        }


def truncate_arrivals(arrivals: dict[int, int], num_packets: int) -> dict[int, int]:
    """Restrict an arrival trace to the contiguous prefix ``0..num_packets-1``.

    Simulations run for a finite horizon, so the last few packets of each node's
    trace are edge-distorted (later packets have not arrived yet).  Metrics are
    computed over a fixed prefix so all nodes are compared on the same packets.
    """
    if num_packets < 1:
        raise ValueError(f"num_packets must be positive, got {num_packets}")
    out = {p: s for p, s in arrivals.items() if p < num_packets}
    if len(out) != num_packets:
        missing = sorted(set(range(num_packets)) - set(out))[:5]
        raise ValueError(
            f"arrival trace incomplete for prefix of {num_packets} packets; "
            f"missing {missing} — simulate more slots"
        )
    return out


def collect_metrics(trace: SimTrace, *, num_packets: int) -> SchemeMetrics:
    """Compute the Table 1 quantities from a finished simulation trace.

    Args:
        trace: a completed simulation.
        num_packets: the packet prefix over which delays/buffers are measured;
            every node must have received all of packets ``0..num_packets-1``.
    """
    per_node: dict[int, PlaybackSummary] = {}
    neighbors: dict[int, int] = {}
    for nid, state in trace.nodes.items():
        arrivals = truncate_arrivals(state.arrivals, num_packets)
        per_node[nid] = summarize_playback(arrivals)
        neighbors[nid] = len(state.neighbors)

    if not per_node:
        raise ValueError("trace contains no receiver nodes")

    delays = [s.startup_delay for s in per_node.values()]
    buffers = [s.buffer_peak for s in per_node.values()]
    neigh = list(neighbors.values())
    return SchemeMetrics(
        num_nodes=len(per_node),
        max_startup_delay=max(delays),
        avg_startup_delay=mean(delays),
        max_buffer=max(buffers),
        avg_buffer=mean(buffers),
        max_neighbors=max(neigh),
        avg_neighbors=mean(neigh),
        per_node=per_node,
    )


# --------------------------------------------------------------------------
# Repair-aware metrics (lossy runs)
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LossyPlaybackSummary:
    """Per-node playback metrics when some packets may be missing for good.

    A residual hole means no hiccup-free start exists, so ``startup_delay``
    is the earliest start for which every packet that *did* become available
    meets its deadline — missing packets are skipped (playback keeps
    real-time pace), and are reported separately in ``missing``.

    Attributes:
        startup_delay: earliest non-negative start meeting every available
            deadline.
        buffer_peak: peak end-of-slot occupancy at that start.
        available: packets available (received or repaired) in the prefix.
        missing: residual holes in the measured prefix.
    """

    startup_delay: int
    buffer_peak: int
    available: int
    missing: tuple[int, ...]


def summarize_lossy_playback(
    arrivals: Mapping[int, int], num_packets: int
) -> LossyPlaybackSummary:
    """Loss-tolerant counterpart of :func:`~repro.core.playback.summarize_playback`.

    Args:
        arrivals: packet -> slot the packet became available (direct arrival
            or repair); packets ``>= num_packets`` are ignored.
        num_packets: the measured stream prefix ``0..num_packets-1``.
    """
    if num_packets < 1:
        raise ValueError(f"num_packets must be positive, got {num_packets}")
    avail = {p: s for p, s in arrivals.items() if 0 <= p < num_packets}
    missing = tuple(sorted(set(range(num_packets)) - set(avail)))
    if not avail:
        return LossyPlaybackSummary(0, 0, 0, missing)
    # Clamped at 0: a node holding only packets that arrived ahead of their
    # index (e.g. {5: 3}) starts playback at once, not before the stream.
    start = max(0, max(slot - packet for packet, slot in avail.items()) + 1)
    # Buffer occupancy with holes: packet j is consumed at slot
    # start + j - 1 (clamped to its arrival); missing packets never occupy.
    horizon = max(max(avail.values()) + 1, start + num_packets)
    delta = [0] * (horizon + 1)
    for packet, slot in avail.items():
        consume = max(start + packet - 1, slot)
        delta[slot] += 1
        if consume + 1 < horizon:
            delta[consume + 1] -= 1
    peak = running = 0
    for t in range(horizon):
        running += delta[t]
        peak = max(peak, running)
    return LossyPlaybackSummary(start, peak, len(avail), missing)


@dataclass(frozen=True, slots=True)
class RepairMetrics:
    """Aggregate loss/repair metrics for one lossy run (one tradeoff point).

    Attributes:
        num_nodes: receivers measured.
        num_packets: stream prefix measured.
        num_slots: slots simulated (denominator of goodput).
        residual_pairs: ``(node, packet)`` pairs never recovered.
        residual_loss_rate: residual pairs over all measured pairs.
        recovered_pairs: pairs delivered later than the loss-free baseline
            (repaired or knock-on delayed).
        recovery_latency_mean: mean extra slots over the baseline arrival,
            across recovered pairs (0 when nothing was recovered).
        recovery_latency_max: worst extra slots over the baseline arrival.
        recovery_latencies: the full latency distribution (slots late).
        goodput: available data pairs per node per slot.
        max_effective_delay: worst loss-tolerant startup delay over nodes.
        avg_effective_delay: mean loss-tolerant startup delay over nodes.
        max_buffer: worst peak buffer over nodes at those starts.
        avg_buffer: mean peak buffer over nodes.
    """

    num_nodes: int
    num_packets: int
    num_slots: int
    residual_pairs: int
    residual_loss_rate: float
    recovered_pairs: int
    recovery_latency_mean: float
    recovery_latency_max: int
    recovery_latencies: tuple[int, ...]
    goodput: float
    max_effective_delay: int
    avg_effective_delay: float
    max_buffer: int
    avg_buffer: float

    def row(self) -> dict[str, float]:
        """Flat dict for table rendering (drops the latency distribution)."""
        return {
            "num_nodes": self.num_nodes,
            "residual": self.residual_pairs,
            "residual_rate": round(self.residual_loss_rate, 5),
            "recovered": self.recovered_pairs,
            "rec_lat_mean": round(self.recovery_latency_mean, 2),
            "rec_lat_max": self.recovery_latency_max,
            "goodput": round(self.goodput, 4),
            "max_delay": self.max_effective_delay,
            "avg_delay": round(self.avg_effective_delay, 3),
            "max_buffer": self.max_buffer,
            "avg_buffer": round(self.avg_buffer, 3),
        }


def collect_repair_metrics(
    arrivals_by_node: Mapping[int, Mapping[int, int]],
    *,
    num_packets: int,
    num_slots: int,
    baseline: Mapping[int, Mapping[int, int]] | None = None,
) -> RepairMetrics:
    """Aggregate the repair tradeoff metrics over effective arrival traces.

    Args:
        arrivals_by_node: node -> (data packet -> slot available).  For
            retransmission runs this is the trace's raw arrivals; for parity
            runs it is the post-decode effective arrivals.
        num_packets: measured stream prefix.
        num_slots: slots the run simulated.
        baseline: the same protocol's loss-free arrivals (same clock!), used
            to attribute lateness: a pair arriving after its baseline slot
            was recovered, and the difference is its recovery latency.
    """
    if not arrivals_by_node:
        raise ValueError("no receiver traces to measure")
    if num_slots < 1:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    summaries: dict[int, LossyPlaybackSummary] = {}
    residual = 0
    available = 0
    latencies: list[int] = []
    for node, arrivals in arrivals_by_node.items():
        summary = summarize_lossy_playback(arrivals, num_packets)
        summaries[node] = summary
        residual += len(summary.missing)
        available += summary.available
        if baseline is not None:
            reference = baseline[node]
            for packet, slot in arrivals.items():
                if packet >= num_packets:
                    continue
                base_slot = reference.get(packet)
                if base_slot is not None and slot > base_slot:
                    latencies.append(slot - base_slot)
    num_nodes = len(summaries)
    delays = [s.startup_delay for s in summaries.values()]
    buffers = [s.buffer_peak for s in summaries.values()]
    return RepairMetrics(
        num_nodes=num_nodes,
        num_packets=num_packets,
        num_slots=num_slots,
        residual_pairs=residual,
        residual_loss_rate=residual / (num_nodes * num_packets),
        recovered_pairs=len(latencies),
        recovery_latency_mean=mean(latencies) if latencies else 0.0,
        recovery_latency_max=max(latencies, default=0),
        recovery_latencies=tuple(sorted(latencies)),
        goodput=available / (num_nodes * num_slots),
        max_effective_delay=max(delays),
        avg_effective_delay=mean(delays),
        max_buffer=max(buffers),
        avg_buffer=mean(buffers),
    )
