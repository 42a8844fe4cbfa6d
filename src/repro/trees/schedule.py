"""The round-robin transmission schedule of Section 2.2.3.

Packets are split across the ``d`` trees by residue: packet ``p`` travels down
tree ``T_{p mod d}``.  In slot ``t = m*d + r`` the source sends packet
``k + m*d`` to its ``r``-th child in every tree ``T_k`` (``d`` sends per slot),
and every interior node of every tree forwards the most recent packet it has
received in that tree to its ``r``-th child.  Children are numbered ``0..d-1``
left to right, so position ``q`` (child index ``(q-1) mod d``) receives packets
only in slots ``t ≡ q - 1 (mod d)`` — combined with the constructions'
position-congruence property this makes the schedule collision-free.

Two stream modes are supported:

* ``prerecorded`` — every packet is available at the source from slot 0
  (the paper's primary analysis setting);
* ``live_prebuffered`` — packet ``p`` is generated during slot ``p``; the
  source waits ``d`` slots, then replays the pre-recorded schedule shifted by
  ``d``, adding exactly ``d`` slots of delay for every node (the paper's
  recommended live adaptation).

The paper also sketches a *pipelined* live variant that shifts tree ``T_k``'s
schedule by ``k`` slots and notes it "is not easy to analyze"; indeed the shift
breaks the position-congruence guarantee and can schedule two receptions at one
node in the same slot.  :func:`pipelined_live_collisions` quantifies this.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ScheduleError
from repro.core.packet import Transmission
from repro.trees import positions as pos
from repro.trees.forest import SOURCE_ID, MultiTreeForest
from repro.trees.tree import StreamTree
from repro.trees.vectorized import first_arrival_slots_np

__all__ = [
    "StreamMode",
    "PRERECORDED",
    "LIVE_PREBUFFERED",
    "first_arrival_slots",
    "arrival_trace",
    "slot_transmissions",
    "timetable_columns",
    "pipelined_live_collisions",
    "ScheduleParams",
    "multi_tree_horizon",
]

StreamMode = str
PRERECORDED: StreamMode = "prerecorded"
LIVE_PREBUFFERED: StreamMode = "live_prebuffered"
_MODES = (PRERECORDED, LIVE_PREBUFFERED)


@dataclass(frozen=True, slots=True)
class ScheduleParams:
    """Schedule configuration.

    Attributes:
        mode: ``prerecorded`` or ``live_prebuffered``.
        latency: link latency in slots (``T_i``; the paper normalizes to 1).
    """

    mode: StreamMode = PRERECORDED
    latency: int = 1

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ScheduleError(f"unknown stream mode {self.mode!r}; choose from {_MODES}")
        if self.latency < 1:
            raise ScheduleError(f"latency must be >= 1, got {self.latency}")


def _shift(params: ScheduleParams, degree: int) -> int:
    """Global slot shift: 0 for pre-recorded, d for the live prebuffer."""
    return degree if params.mode == LIVE_PREBUFFERED else 0


def multi_tree_horizon(
    height: int, degree: int, num_packets: int, params: ScheduleParams
) -> int:
    """Slots guaranteeing every real node of a height-``height`` forest holds
    packets ``0..num_packets-1``.

    The worst first-packet arrival is bounded by ``h*d`` (Theorem 2); later
    packets arrive ``d`` slots apart per tree, plus the live prebuffer shift
    of ``d``.
    """
    d = degree
    return (height * d + num_packets * d + _shift(params, d) + d) * params.latency + d


def first_arrival_slots(tree: StreamTree, *, latency: int = 1) -> dict[int, int]:
    """Slot (0-indexed, unshifted) at which each position receives its tree's
    *first* packet.

    Uses the recurrence ``a(q) = `` smallest slot ``> a(parent(q)) + latency - 1``
    congruent to ``(q - 1) mod d``, with the source able to transmit from
    slot 0 (``a(root) = -1``).  Subsequent packets of the same tree arrive
    exactly ``d`` slots apart.
    """
    d = tree.degree
    arrivals: dict[int, int] = {}
    for position in range(1, tree.size + 1):
        parent = pos.parent_position(position, d)
        parent_arrival = -1 if parent == pos.ROOT else arrivals[parent]
        target = (position - 1) % d
        # Smallest send slot s > parent_arrival with s ≡ target (mod d).
        send = parent_arrival + 1 + ((target - parent_arrival - 1) % d)
        arrivals[position] = send + latency - 1
    return arrivals


def arrival_trace(
    forest: MultiTreeForest,
    num_packets: int,
    params: ScheduleParams = ScheduleParams(),
) -> dict[int, dict[int, int]]:
    """Analytic arrival traces: node -> (packet -> arrival slot).

    Equivalent to running the packet-level simulator but computed in closed
    form from the first-arrival recurrence; used for large parameter sweeps
    (Figure 4) and cross-validated against the engine in the test suite.
    Only real nodes are included.
    """
    if num_packets < 1:
        raise ScheduleError(f"num_packets must be positive, got {num_packets}")
    d = forest.degree
    shift = _shift(params, d)
    traces: dict[int, dict[int, int]] = {n: {} for n in forest.real_nodes}
    for tree in forest.trees:
        first = first_arrival_slots(tree, latency=params.latency)
        k = tree.index
        for node in forest.real_nodes:
            base = first[tree.position_of(node)] + shift
            trace = traces[node]
            packet = k
            slot = base
            while packet < num_packets:
                trace[packet] = slot
                packet += d
                slot += d
    return traces


def slot_transmissions(
    forest: MultiTreeForest,
    slot: int,
    params: ScheduleParams = ScheduleParams(),
) -> list[Transmission]:
    """All transmissions initiated during ``slot`` under the round-robin schedule.

    Transmissions to dummy positions are suppressed (dummies do not exist in
    the real system); transmissions *from* dummy positions never occur because
    dummies are leaves.
    """
    d = forest.degree
    shift = _shift(params, d)
    if slot < shift:
        return []
    t = slot - shift
    r = t % d
    m = t // d
    out: list[Transmission] = []
    for tree in forest.trees:
        k = tree.index
        first = _first_arrivals_cached(tree, params.latency)
        # Source send: packet k + m*d to child index r (position r + 1).
        target = tree.node_at(r + 1)
        if not forest.is_dummy(target):
            out.append(
                Transmission(
                    slot=slot,
                    sender=SOURCE_ID,
                    receiver=target,
                    packet=k + m * d,
                    latency=params.latency,
                    tree=k,
                )
            )
        # Interior forwards: most recent tree-k packet received before slot t.
        for position in range(1, tree.interior + 1):
            a0 = first[position]
            if t <= a0:
                continue  # nothing received yet
            rounds = (t - 1 - a0) // d  # newest packet fully received by t-1
            packet = k + rounds * d
            child_position = d * position + 1 + r
            child = tree.node_at(child_position)
            if forest.is_dummy(child):
                continue
            sender = tree.node_at(position)
            out.append(
                Transmission(
                    slot=slot,
                    sender=sender,
                    receiver=child,
                    packet=packet,
                    latency=params.latency,
                    tree=k,
                )
            )
    return out


def timetable_columns(
    forest: MultiTreeForest, num_slots: int, params: ScheduleParams
) -> tuple[np.ndarray, ...]:
    """Every transmission of slots ``0..num_slots-1``, as int columns.

    The closed form of :func:`slot_transmissions` over the whole horizon:
    ``(slots, senders, receivers, packets, latencies, trees)`` in the order
    the per-slot calls emit — slot, then tree, then the source's send before
    the interior positions' in position order.  Each tree is a
    ``(slot, 1 + interior)`` grid: in slot ``t = m*d + r`` column ``q``
    sends to position ``d*q + 1 + r`` the newest packet it received before
    ``t`` — ``k + floor((t - 1 - a0(q)) / d) * d`` once ``t > a0(q)``.  Column
    0 is the source, which holds every packet (``a0 = -1`` gives ``k + m*d``).
    Sends to dummy positions are dropped.
    """
    d = forest.degree
    shift = _shift(params, d)
    interior = forest.trees[0].interior
    layout = np.array([tree.layout for tree in forest.trees], dtype=np.int64)
    index = np.array([tree.index for tree in forest.trees], dtype=np.int64)
    first = first_arrival_slots_np(layout.shape[1], d, latency=params.latency)
    a0 = np.concatenate(([-1], first[:interior]))
    senders_of = np.concatenate(
        (np.full((d, 1), SOURCE_ID, dtype=np.int64), layout[:, :interior]), axis=1
    )
    t = np.arange(max(num_slots - shift, 0))
    child = d * np.arange(interior + 1) + (t % d)[:, None]  # 0-based position
    receivers = layout[np.arange(d)[:, None], child[:, None, :]]  # (t, tree, q)
    sends = (t[:, None] > a0)[:, None, :] & (receivers <= forest.num_nodes)
    ti, ki, qi = np.nonzero(sends)
    return (
        ti + shift,
        senders_of[ki, qi],
        receivers[ti, ki, qi],
        index[ki] + (ti - 1 - a0[qi]) // d * d,
        np.full(len(ti), params.latency, dtype=np.int64),
        index[ki],
    )


_FIRST_ARRIVAL_CACHE: dict[tuple[int, int, tuple[int, ...], int], dict[int, int]] = {}


def _first_arrivals_cached(tree: StreamTree, latency: int) -> dict[int, int]:
    key = (tree.index, tree.degree, tree.layout, latency)
    cached = _FIRST_ARRIVAL_CACHE.get(key)
    if cached is None:
        cached = first_arrival_slots(tree, latency=latency)
        # A per-process memo of a pure function: a worker's entries only
        # save that worker recomputation, so divergence is harmless.
        if len(_FIRST_ARRIVAL_CACHE) > 256:  # bound memory across sweeps
            _FIRST_ARRIVAL_CACHE.clear()  # repro-lint: disable=REP005 -- per-process memo
        _FIRST_ARRIVAL_CACHE[key] = cached  # repro-lint: disable=REP005 -- per-process memo
    return cached


def pipelined_live_collisions(forest: MultiTreeForest) -> int:
    """Receive collisions caused by the paper's *pipelined* live variant.

    That variant shifts tree ``T_k``'s entire schedule by ``k`` slots so the
    source never sends an ungenerated packet.  Position ``q`` of ``T_k`` then
    receives in slots ``≡ q - 1 + k (mod d)``; two trees may map the same node
    to the same residue, forcing two receptions in one slot.  Returns the
    number of (node, residue) conflicts — 0 would mean the variant is safe for
    this forest, a positive count reproduces the paper's remark that the
    pipelined schedule "is not easy to analyze".
    """
    d = forest.degree
    collisions = 0
    for node in forest.real_nodes:
        residues = Counter(
            (tree.position_of(node) - 1 + tree.index) % d for tree in forest.trees
        )
        collisions += sum(count - 1 for count in residues.values() if count > 1)
    return collisions
