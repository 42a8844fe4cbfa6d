"""The chain baseline from the paper's introduction.

Receivers are arranged in a list; the source streams to the first node and
every node forwards each packet to its successor one slot later.  Buffering is
minimal (one packet in transit) and every node talks to at most two neighbors,
but node ``i``'s playback delay is ``i`` slots — "unacceptable for all but a
few nodes" once the cluster is large.  This is the O(N)-delay endpoint of the
delay/buffer tradeoff the paper studies.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.baselines.single_tree import check_tree, tree_horizon, tree_timetable
from repro.core.errors import ConstructionError
from repro.core.packet import Transmission
from repro.core.protocol import HoldingsView, StreamingProtocol

__all__ = ["ChainProtocol", "chain_delay", "chain_worst_delay", "chain_average_delay"]

SOURCE_ID = 0


def chain_delay(node: int) -> int:
    """Closed-form startup delay of chain position ``node`` (1-indexed)."""
    if node < 1:
        raise ConstructionError(f"chain positions start at 1, got {node}")
    return node


def chain_worst_delay(num_nodes: int) -> int:
    """Worst-case startup delay: the tail of the chain waits ``N`` slots."""
    return num_nodes


def chain_average_delay(num_nodes: int) -> float:
    """Average startup delay ``(N + 1) / 2``.

    Examples:
        >>> chain_average_delay(100)
        50.5
    """
    if num_nodes < 1:
        raise ConstructionError(f"need at least one node, got {num_nodes}")
    return (num_nodes + 1) / 2


class ChainProtocol(StreamingProtocol):
    """Source -> node 1 -> node 2 -> ... -> node N, one packet per slot."""

    def __init__(self, num_nodes: int) -> None:
        check_tree(num_nodes, 1)
        self._num_nodes = num_nodes

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def node_ids(self) -> Sequence[int]:
        return range(1, self._num_nodes + 1)

    @property
    def source_ids(self) -> frozenset[int]:
        return frozenset((SOURCE_ID,))

    def transmissions(self, slot: int, view: HoldingsView) -> Iterable[Transmission]:
        out = [Transmission(slot=slot, sender=SOURCE_ID, receiver=1, packet=slot)]
        # Node i forwards the packet it received last slot: packet slot - i.
        for node in range(1, self._num_nodes):
            packet = slot - node
            if packet >= 0:
                out.append(
                    Transmission(slot=slot, sender=node, receiver=node + 1, packet=packet)
                )
        return out

    def timetable(self, num_slots: int) -> tuple[np.ndarray, ...]:
        """The first ``num_slots`` slots as int columns, in
        :meth:`transmissions` order: the chain is the 1-ary BFS tree, node
        ``i`` sending packet ``slot - i`` (see :func:`tree_timetable`)."""
        return tree_timetable(self._num_nodes, 1, num_slots)

    def packet_available_slot(self, packet: int) -> int:
        return packet  # live-capable: the chain never outruns generation

    def slots_for_packets(self, num_packets: int) -> int:
        return tree_horizon(self._num_nodes, num_packets)  # node N is at depth N

    def describe(self) -> str:
        return f"chain(N={self._num_nodes})"
