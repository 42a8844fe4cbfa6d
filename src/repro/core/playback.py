"""Playback-delay and buffer-occupancy computations from arrival traces.

The quantities the paper studies — *playback delay* and *buffer space* — are pure
functions of a node's packet-arrival trace, so we compute them post-hoc from the
simulator's record rather than baking a policy into the protocols.

Conventions (see DESIGN.md §6):

* ``arrivals`` maps packet id ``j`` (0-indexed) to the slot at whose end the
  packet is available at the node.
* A node that starts playback with *startup delay* ``D`` consumes packet ``j`` at
  the end of slot ``D + j - 1``; this is hiccup-free iff every packet ``j``
  satisfies ``arrivals[j] <= D + j - 1``.
* Hence the earliest hiccup-free startup delay is
  ``D* = max_j (arrivals[j] - j) + 1``, which makes the paper's worst-case bound
  for the multi-tree scheme exactly ``h * d`` (Theorem 2).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

__all__ = [
    "earliest_safe_start",
    "hiccup_count",
    "hiccup_packets",
    "buffer_occupancy_series",
    "buffer_peak",
    "PlaybackSummary",
    "summarize_playback",
]


def earliest_safe_start(arrivals: Mapping[int, int]) -> int:
    """Earliest hiccup-free startup delay for a node's arrival trace.

    Returns the smallest ``D >= 1`` such that consuming packet ``j`` at the end
    of slot ``D + j - 1`` never outruns the arrivals.  Only the packets present
    in ``arrivals`` are considered; callers must pass a contiguous prefix
    ``0..P-1`` of the stream (checked).

    Examples:
        The paper's node-1 example — packets 0, 1, 2 arriving in slots
        0, 2, 1:

        >>> earliest_safe_start({0: 0, 1: 2, 2: 1})
        2
    """
    _check_trace(arrivals)
    return max(slot - packet for packet, slot in arrivals.items()) + 1


def _check_trace(arrivals: Mapping[int, int]) -> None:
    """Require a nonempty trace of packets ``0..P-1`` at slots ``>= 0``."""
    if not arrivals:
        raise ValueError("arrival trace is empty; node never received a packet")
    n = len(arrivals)
    if min(arrivals) != 0 or max(arrivals) != n - 1:
        missing = sorted(set(range(max(arrivals) + 1)) - set(arrivals))[:5]
        raise ValueError(
            f"arrival trace must cover a contiguous packet prefix 0..{n - 1}; "
            f"missing packets {missing}"
        )
    if min(arrivals.values()) < 0:
        packet = min(p for p, slot in arrivals.items() if slot < 0)
        raise ValueError(
            f"packet {packet} arrives at slot {arrivals[packet]}; "
            f"arrival slots start at 0"
        )


def hiccup_packets(arrivals: Mapping[int, int], start_delay: int) -> list[int]:
    """Packets that would miss their playback deadline for a given startup delay.

    Packet ``j`` misses its deadline iff it has not arrived by the end of slot
    ``start_delay + j - 1``.
    """
    _check_trace(arrivals)
    return sorted(j for j, slot in arrivals.items() if slot > start_delay + j - 1)


def hiccup_count(arrivals: Mapping[int, int], start_delay: int) -> int:
    """Number of playback deadline misses for a given startup delay."""
    return len(hiccup_packets(arrivals, start_delay))


def buffer_occupancy_series(
    arrivals: Mapping[int, int],
    start_delay: int,
    *,
    horizon: int | None = None,
) -> list[int]:
    """Peak buffer occupancy within each slot ``0..horizon-1``.

    Occupancy in slot ``t`` counts packets that have arrived by the end of
    ``t`` and were not consumed in an *earlier* slot — i.e. the buffer level
    after the slot's arrivals and before its consumption.  This matches the
    paper's accounting (node 1 of the worked example needs a buffer of 3: in
    slot 2 it holds packets 0, 1, 2 with playback starting only afterwards):
    a packet received and played in the same slot still transits the buffer.

    Consumption of packet ``j`` is scheduled for slot ``start_delay + j - 1``
    but clamped to the packet's arrival slot — with an infeasible (hiccup)
    start the packet is consumed as soon as it arrives.
    """
    _check_trace(arrivals)
    num_packets = len(arrivals)
    if horizon is None:
        horizon = max(max(arrivals.values()) + 1, start_delay + num_packets)
    occupancy = [0] * horizon
    # +1 at the arrival slot; -1 one slot after consumption (the packet still
    # occupies the buffer during the slot it is played).
    delta = [0] * (horizon + 1)
    for packet, slot in arrivals.items():
        consume_slot = max(start_delay + packet - 1, slot)
        if slot >= horizon:
            continue
        delta[slot] += 1
        if consume_slot + 1 < horizon:
            delta[consume_slot + 1] -= 1
    running = 0
    for t in range(horizon):
        running += delta[t]
        occupancy[t] = running
    return occupancy


def buffer_peak(arrivals: Mapping[int, int], start_delay: int) -> int:
    """Maximum end-of-slot buffer occupancy for a given startup delay."""
    series = buffer_occupancy_series(arrivals, start_delay)
    return max(series) if series else 0


@dataclass(frozen=True, slots=True)
class PlaybackSummary:
    """Per-node playback metrics derived from an arrival trace.

    Attributes:
        startup_delay: earliest hiccup-free startup delay ``D*`` (slots).
        buffer_peak: peak end-of-slot buffer occupancy when starting at ``D*``.
        first_arrival_slot: slot of the node's first packet arrival.
        packets_observed: number of packets in the trace.
    """

    startup_delay: int
    buffer_peak: int
    first_arrival_slot: int
    packets_observed: int


def summarize_playback(arrivals: Mapping[int, int]) -> PlaybackSummary:
    """Compute the standard per-node playback summary from an arrival trace."""
    start = earliest_safe_start(arrivals)
    return PlaybackSummary(
        startup_delay=start,
        buffer_peak=buffer_peak(arrivals, start),
        first_arrival_slot=min(arrivals.values()),
        packets_observed=len(arrivals),
    )
