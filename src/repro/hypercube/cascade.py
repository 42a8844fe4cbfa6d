"""The arbitrary-``N`` hypercube cascade (Section 3.2).

``N`` receivers are split into a chain of shrinking hypercubes: the first cube
takes ``N_1 = 2^{k_1} - 1`` nodes with ``k_1 = floor(log2(N + 1))``, and the
remainder recurses.  Cube 0's vertex 0 is the real source; for cube ``c > 0``
the *whole previous cube* acts as a logical source: in every slot the upstream
cube's spare-capacity port (the node paired with its source) forwards the
packet it just consumed to the downstream cube's current receive port.

Timing is deterministic.  A cube of dimension ``k`` whose injections start at
global slot ``o`` (packet ``p`` arriving at local slot ``p``) has every node
holding packet ``p`` by local slot ``p + k``, and its port can always forward
packet ``τ - k`` at local slot ``τ`` (the packet consumed at the end of that
slot).  Hence cube ``c + 1`` starts at ``o_{c+1} = o_c + k_c`` and cube ``c``'s
playback begins after local slot ``k_c`` — giving Proposition 2's
``O(log^2 N)`` worst-case delay, ``O(1)`` buffers and ``O(log N)`` neighbors,
and Theorem 4's ``2 log N`` average delay.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.errors import ConstructionError

__all__ = [
    "CubeSpec",
    "cascade_horizon",
    "cascade_plan",
    "worst_case_delay_bound",
    "expected_worst_delay",
    "expected_average_delay",
    "theorem4_bound",
    "proposition2_neighbor_bound",
]


@dataclass(frozen=True, slots=True)
class CubeSpec:
    """One hypercube in the cascade.

    Attributes:
        index: position in the chain (0 is fed by the real source).
        k: cube dimension; the cube spans ``2^k - 1`` receivers.
        offset: global slot at which packet 0 reaches this cube (``o_c``).
        first_node: smallest global receiver id in this cube.
    """

    index: int
    k: int
    offset: int
    first_node: int

    @property
    def num_receivers(self) -> int:
        return (1 << self.k) - 1

    @property
    def node_range(self) -> range:
        """Global receiver ids of this cube's vertices ``1 .. 2^k - 1``."""
        return range(self.first_node, self.first_node + self.num_receivers)

    def global_id(self, vertex: int) -> int:
        """Global id of a local vertex (vertex 0 is the cube's feeder)."""
        if not 1 <= vertex <= self.num_receivers:
            raise ConstructionError(
                f"vertex {vertex} outside 1..{self.num_receivers} of cube {self.index}"
            )
        return self.first_node + vertex - 1

    @property
    def startup_delay(self) -> int:
        """Slots before this cube's nodes consume their first packet.

        Packet ``p`` is held cube-wide by local slot ``p + k``; consuming it at
        the end of that slot gives a startup delay of ``offset + k + 1``
        (the single-cube ``k = 1`` chain needs only ``offset + 1``).
        """
        lag = 0 if self.k == 1 else self.k
        return self.offset + lag + 1


def cascade_plan(num_nodes: int) -> list[CubeSpec]:
    """Split ``N`` receivers into the paper's chain of maximal hypercubes.

    Examples:
        >>> [cube.k for cube in cascade_plan(100)]
        [6, 5, 2, 2]
        >>> cascade_plan(7)[0].startup_delay  # a single 3-cube: k + 1
        4
    """
    if num_nodes < 1:
        raise ConstructionError(f"need at least one receiver, got {num_nodes}")
    cubes: list[CubeSpec] = []
    remaining = num_nodes
    offset = 0
    first_node = 1
    index = 0
    while remaining > 0:
        k = (remaining + 1).bit_length() - 1  # floor(log2(remaining + 1))
        cubes.append(CubeSpec(index=index, k=k, offset=offset, first_node=first_node))
        size = (1 << k) - 1
        remaining -= size
        first_node += size
        offset += k  # the spare port exports with lag exactly k
        index += 1
    return cubes


def cascade_horizon(plan: Sequence[CubeSpec], num_packets: int) -> int:
    """Slots guaranteeing every node of the cascade ``plan`` holds packets
    ``0..num_packets-1``: its last cube holds packet ``p`` cube-wide by
    global slot ``offset + k + p``, plus two slots of margin."""
    last = plan[-1]
    return last.offset + last.k + num_packets + 2


def expected_worst_delay(num_nodes: int) -> int:
    """Exact worst-case startup delay of the deterministic cascade."""
    return max(cube.startup_delay for cube in cascade_plan(num_nodes))


def expected_average_delay(num_nodes: int) -> float:
    """Exact average startup delay of the deterministic cascade."""
    plan = cascade_plan(num_nodes)
    total = sum(cube.startup_delay * cube.num_receivers for cube in plan)
    return total / num_nodes


def worst_case_delay_bound(num_nodes: int) -> float:
    """Proposition 2's ``O(log^2 N)`` bound, instantiated as
    ``(log2(N+1) + 1)^2``: at most ``log2(N+1)`` cubes each adding at most
    ``k_1`` slots of offset plus its own ``k + 1`` startup."""
    k1 = math.floor(math.log2(num_nodes + 1))
    return float((k1 + 1) ** 2)


def theorem4_bound(num_nodes: int) -> float:
    """Theorem 4: the average startup delay is at most ``2 log2 N``."""
    if num_nodes < 1:
        raise ConstructionError(f"need at least one receiver, got {num_nodes}")
    if num_nodes == 1:
        return 2.0  # ave(1) = 1 <= 2; log2(1) = 0 makes the bound vacuous
    return 2 * math.log2(num_nodes)


def proposition2_neighbor_bound(num_nodes: int) -> int:
    """Upper bound on any node's neighbor count in the cascade.

    A vertex of cube ``c`` talks to its ``k_c`` cube neighbors; a port vertex
    additionally receives from up to ``k_{c-1}`` upstream ports and sends to
    up to ``k_{c+1}`` downstream ports — all ``O(log N)``.
    """
    plan = cascade_plan(num_nodes)
    bound = 0
    for i, cube in enumerate(plan):
        upstream = plan[i - 1].k if i > 0 else 1  # cube 0 hears the source
        downstream = plan[i + 1].k if i + 1 < len(plan) else 0
        bound = max(bound, cube.k + upstream + downstream)
    return bound
