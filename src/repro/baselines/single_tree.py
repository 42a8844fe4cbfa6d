"""The single-tree baseline from the paper's introduction.

A single complete ``b``-ary tree rooted at the source gives ``O(log_b N)``
playback delay and ``O(1)`` buffers — but every interior node must upload
``b`` packets per slot (``b`` times the streaming rate) while roughly half the
nodes (the leaves) upload nothing.  The paper rejects this because upload
bandwidth is typically *lower* than download bandwidth; the multi-tree scheme
exists precisely to spread that load.  We implement the baseline with explicit
per-node capacity accounting so the benches can report the upload requirement
next to the delay.

Under the paper's unit-capacity model a single tree cannot sustain full-rate
streaming at all: an interior node would have to send ``b`` packets in the
slot it received one.  :func:`sustainable_rate` quantifies this (rate ``1/b``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

import numpy as np

from repro.core.errors import ConstructionError
from repro.core.packet import Transmission
from repro.core.protocol import HoldingsView, StreamingProtocol
from repro.trees import positions as pos

__all__ = [
    "SingleTreeProtocol",
    "check_tree",
    "single_tree_depth",
    "single_tree_worst_delay",
    "sustainable_rate",
    "tree_horizon",
    "tree_timetable",
    "wasted_upload_fraction",
]

SOURCE_ID = 0


def single_tree_depth(num_nodes: int, fanout: int) -> int:
    """Depth of the deepest receiver in a BFS-filled ``b``-ary tree."""
    if num_nodes < 1:
        raise ConstructionError(f"need at least one node, got {num_nodes}")
    if fanout < 1:
        raise ConstructionError(f"fanout must be >= 1, got {fanout}")
    return pos.level_of_position(num_nodes, fanout)


def check_tree(num_nodes: int, fanout: int) -> None:
    """Reject a population or fanout :class:`SingleTreeProtocol` cannot
    build (the chain is the ``fanout = 1`` tree)."""
    if num_nodes < 1:
        raise ConstructionError(f"need at least one receiver, got {num_nodes}")
    if fanout < 1:
        raise ConstructionError(f"fanout must be >= 1, got {fanout}")


def tree_horizon(depth: int, num_packets: int) -> int:
    """Slots guaranteeing every node of a depth-``depth`` forwarding tree
    holds packets ``0..num_packets-1``: a level-``L`` node receives packet
    ``p`` in slot ``L - 1 + p``, plus two slots of margin."""
    return depth + num_packets + 1


def single_tree_worst_delay(num_nodes: int, fanout: int) -> int:
    """Startup delay of the deepest node: one slot per level."""
    return single_tree_depth(num_nodes, fanout)


def sustainable_rate(fanout: int) -> Fraction:
    """Stream rate a unit-capacity single tree can sustain: ``1 / b``.

    An interior node receives at rate ``r`` and must send ``b * r``; with unit
    send capacity, ``r <= 1/b``.
    """
    if fanout < 1:
        raise ConstructionError(f"fanout must be >= 1, got {fanout}")
    return Fraction(1, fanout)


def wasted_upload_fraction(num_nodes: int, fanout: int) -> float:
    """Fraction of nodes (the leaves) contributing no upload capacity."""
    interior = sum(1 for p in range(1, num_nodes + 1) if fanout * p + 1 <= num_nodes)
    return 1 - interior / num_nodes


def tree_timetable(
    num_nodes: int, fanout: int, num_slots: int
) -> tuple[np.ndarray, ...]:
    """A BFS-filled ``fanout``-ary tree's first ``num_slots`` slots as int
    columns ``(slots, senders, receivers, packets, latencies, trees)``.

    The tree is a static edge list: receiver ``c``'s parent ``(c - 1) //
    fanout`` (0 is the source) sends it packet ``slot - depth(parent)`` in
    every slot where that is ``>= 0``.  Broadcasting the edges against the
    slots and keeping those rows gives :meth:`SingleTreeProtocol.transmissions`'
    order — slot, then receiver (a parent's children are consecutive).  The
    chain is the ``fanout = 1`` case.
    """
    receivers = np.arange(1, num_nodes + 1)
    parents = (receivers - 1) // fanout
    level_starts = [1]  # first position of each level >= 1
    while level_starts[-1] <= num_nodes:
        level_starts.append(fanout * level_starts[-1] + 1)
    depth = np.searchsorted(level_starts, parents, side="right")
    ti, ei = np.nonzero(np.arange(num_slots)[:, None] >= depth)
    return (
        ti,
        parents[ei],
        receivers[ei],
        ti - depth[ei],
        np.ones(len(ti), dtype=np.int64),
        np.full(len(ti), -1, dtype=np.int64),
    )


class SingleTreeProtocol(StreamingProtocol):
    """End-system multicast over one complete ``b``-ary tree.

    Interior nodes are given send capacity ``b`` (the baseline's defining
    requirement); each forwards every packet to all children one slot after
    receiving it, so the deepest node's delay equals the tree depth.
    """

    def __init__(self, num_nodes: int, fanout: int = 2) -> None:
        check_tree(num_nodes, fanout)
        self._num_nodes = num_nodes
        self.fanout = fanout

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def node_ids(self) -> Sequence[int]:
        return range(1, self._num_nodes + 1)

    @property
    def source_ids(self) -> frozenset[int]:
        return frozenset((SOURCE_ID,))

    def children_of(self, node: int) -> list[int]:
        return [
            c for c in pos.child_positions(node, self.fanout) if c <= self._num_nodes
        ]

    def send_capacity(self, node: int) -> int:
        if node == SOURCE_ID:
            return min(self.fanout, self._num_nodes)
        return max(1, len(self.children_of(node)))

    def transmissions(self, slot: int, view: HoldingsView) -> Iterable[Transmission]:
        out = [
            Transmission(slot=slot, sender=SOURCE_ID, receiver=child, packet=slot)
            for child in range(1, min(self.fanout, self._num_nodes) + 1)
        ]
        for node in range(1, self._num_nodes + 1):
            depth = pos.level_of_position(node, self.fanout)
            packet = slot - depth  # received `depth - 1` hops after emission
            if packet < 0:
                continue
            for child in self.children_of(node):
                out.append(
                    Transmission(slot=slot, sender=node, receiver=child, packet=packet)
                )
        return out

    def timetable(self, num_slots: int) -> tuple[np.ndarray, ...]:
        """The first ``num_slots`` slots as int columns, in
        :meth:`transmissions` order (see :func:`tree_timetable`)."""
        return tree_timetable(self._num_nodes, self.fanout, num_slots)

    def packet_available_slot(self, packet: int) -> int:
        return packet

    def slots_for_packets(self, num_packets: int) -> int:
        return tree_horizon(single_tree_depth(self._num_nodes, self.fanout), num_packets)

    def describe(self) -> str:
        return f"single-tree(N={self._num_nodes}, b={self.fanout})"
