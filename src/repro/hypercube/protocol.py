"""Engine-driven protocols for the hypercube schemes (Section 3).

:class:`HypercubeCascadeProtocol` implements arbitrary ``N`` (Section 3.2);
for special ``N = 2^k - 1`` the plan degenerates to a single cube and the
protocol is exactly the Section 3.1 scheme (:class:`HypercubeProtocol` is the
assertion-carrying convenience wrapper).  :class:`GroupedHypercubeProtocol`
implements the paper's final adjustment: a source of capacity ``d`` splits the
receivers into ``d`` near-equal groups and streams a cascade into each, cutting
delays to the ``N / d`` scale.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.errors import ConstructionError, ScheduleError
from repro.core.packet import Transmission
from repro.core.protocol import HoldingsView, StreamingProtocol
from repro.hypercube.cascade import CubeSpec, cascade_horizon, cascade_plan
from repro.hypercube.cube import CubeExchange, dimension_for_population

__all__ = [
    "HypercubeCascadeProtocol",
    "HypercubeProtocol",
    "GroupedHypercubeProtocol",
    "SOURCE_ID",
    "lane_sizes",
]

#: Source node id used by the hypercube protocols.
SOURCE_ID = 0


class _CascadeLane:
    """One chain of cubes fed by the source, emitting global transmissions.

    Node ids are mapped through ``id_map`` so several lanes (grouped variant)
    can coexist; ``lane_offset`` delays the whole lane (unused, reserved).
    """

    def __init__(self, num_nodes: int, id_map: Sequence[int]) -> None:
        if len(id_map) != num_nodes:
            raise ConstructionError("id_map must cover every lane node")
        self.plan: list[CubeSpec] = cascade_plan(num_nodes)
        self.id_map = list(id_map)  # lane-local id (1-based) -> global id
        self._exchanges = [CubeExchange(cube.k) for cube in self.plan]
        self._next_slot = 0

    def reset(self) -> None:
        """Rewind the lane to slot 0 (fresh exchange state)."""
        self._exchanges = [CubeExchange(cube.k) for cube in self.plan]
        self._next_slot = 0

    def _global_id(self, cube: CubeSpec, vertex: int) -> int:
        return self.id_map[cube.first_node + vertex - 2]

    def _sync_from_view(self, cube: CubeSpec, exchange: CubeExchange, view) -> None:
        """Overwrite the exchange's holdings model with engine ground truth.

        Used in loss-aware runs: after injected failures, a vertex's real
        holdings (what actually arrived) drive the greedy exchange, which is
        what makes the scheme retransmit lost packets automatically.
        """
        for vertex in range(1, cube.num_receivers + 1):
            actual = view.packets_of(self._global_id(cube, vertex))
            holdings = exchange._holdings[vertex]
            holdings.clear()
            holdings.update(actual)

    def transmissions(
        self,
        slot: int,
        source_id: int,
        view=None,
        *,
        loss_aware: bool = False,
    ) -> list[Transmission]:
        if slot != self._next_slot:
            raise ScheduleError(
                f"cascade lane must be stepped sequentially; expected slot "
                f"{self._next_slot}, got {slot}"
            )
        self._next_slot += 1
        out: list[Transmission] = []
        for index, cube in enumerate(self.plan):
            local = slot - cube.offset
            if local < 0:
                continue
            exchange = self._exchanges[index]
            if loss_aware and view is not None:
                self._sync_from_view(cube, exchange, view)
            port = exchange.port_vertex(local)
            # Injection: the real source for cube 0; the upstream cube's
            # current port (forwarding its just-consumed packet) otherwise.
            inject: int | None = local
            if index == 0:
                sender = source_id
            else:
                upstream_cube = self.plan[index - 1]
                upstream_local = slot - upstream_cube.offset
                upstream_port = self._exchanges[index - 1].port_vertex(upstream_local)
                sender = self._global_id(upstream_cube, upstream_port)
                if loss_aware and view is not None and not view.holds(sender, local):
                    # The hand-off packet was lost upstream; there is no
                    # retransmission path across cube boundaries.
                    inject = None
            if inject is not None:
                out.append(
                    Transmission(
                        slot=slot,
                        sender=sender,
                        receiver=self._global_id(cube, port),
                        packet=inject,
                    )
                )
            for transfer in exchange.step(inject=inject):
                out.append(
                    Transmission(
                        slot=slot,
                        sender=self._global_id(cube, transfer.sender),
                        receiver=self._global_id(cube, transfer.receiver),
                        packet=transfer.packet,
                    )
                )
        return out


def _exchange_rows(k: int, num_slots: int) -> np.ndarray:
    """A ``k``-cube's loss-free exchange over local slots ``0..num_slots-1``.

    Rows ``(slot, sender, receiver, packet)`` in cube-local vertices, in the
    order :class:`_CascadeLane` emits them: the slot's injection (sender
    vertex 0, the feeder) first, then :meth:`CubeExchange.step`'s pairs by
    ascending low vertex, low→high before high→low.  An int-bitset replay of
    the greedy exchange: bit ``p`` of ``held[v]`` says vertex ``v`` may
    forward packet ``p``, so the newest packet ``a`` holds that ``b`` lacks
    is ``(held[a] & ~held[b]).bit_length() - 1``.  A slot's pairs are
    disjoint, so each pair commits its receptions at once.  The exchange
    depends only on ``k``: every cube of that dimension shares these rows.
    """
    size = 1 << k
    lows = [[v for v in range(1, size) if not v >> j & 1] for j in range(k)]
    held = [0] * size
    rows: list[int] = []
    for slot in range(num_slots):
        port = 1 << slot % k
        rows += (slot, 0, port, slot)
        for low in lows[slot % k]:
            high = low | port
            a = held[low]
            b = held[high]
            lacks = a & ~b
            if lacks:
                packet = lacks.bit_length() - 1
                rows += (slot, low, high, packet)
                held[high] = b | 1 << packet
            lacks = b & ~a
            if lacks:
                packet = lacks.bit_length() - 1
                rows += (slot, high, low, packet)
                held[low] = a | 1 << packet
        held[port] |= 1 << slot
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _cascade_timetable(
    lanes: Sequence[_CascadeLane], num_slots: int
) -> tuple[np.ndarray, ...]:
    """The lanes' first ``num_slots`` slots as int columns
    ``(slots, senders, receivers, packets, latencies, trees)``.

    Each cube's rows are its dimension's :func:`_exchange_rows` shifted by
    the cube's offset and mapped to global ids; the feeder (vertex 0) is the
    source for a lane's first cube and the upstream cube's current port
    otherwise.  A stable sort by slot interleaves cubes and lanes in the
    order the per-slot loop emits them.
    """
    spans: dict[int, int] = {}
    for lane in lanes:
        for cube in lane.plan:
            spans[cube.k] = max(spans.get(cube.k, 0), num_slots - cube.offset)
    tables = {k: _exchange_rows(k, span) for k, span in spans.items() if span > 0}
    parts: list[np.ndarray] = []
    for lane in lanes:
        ids = np.asarray(lane.id_map, dtype=np.int64)
        upstream: np.ndarray | None = None
        for index, cube in enumerate(lane.plan):
            span = num_slots - cube.offset
            if span <= 0:
                break  # offsets grow along the lane
            table = tables[cube.k]
            rows = table[: np.searchsorted(table[:, 0], span)].copy()
            vertex_ids = np.empty(1 << cube.k, dtype=np.int64)
            vertex_ids[0] = SOURCE_ID
            vertex_ids[1:] = ids[cube.first_node - 1 : cube.first_node - 1 + cube.num_receivers]
            fed = rows[:, 1] == 0
            rows[:, 0] += cube.offset
            rows[:, 1:3] = vertex_ids[rows[:, 1:3]]
            if upstream is not None:
                before = lane.plan[index - 1]
                port = 1 << (rows[fed, 0] - before.offset) % before.k
                rows[fed, 1] = upstream[port]
            parts.append(rows)
            upstream = vertex_ids
    rows = np.concatenate(parts) if parts else np.empty((0, 4), dtype=np.int64)
    if len(parts) > 1:
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
    slots, senders, receivers, packets = rows.T
    return (
        slots,
        senders,
        receivers,
        packets,
        np.ones(len(rows), dtype=np.int64),
        np.full(len(rows), -1, dtype=np.int64),
    )


class HypercubeCascadeProtocol(StreamingProtocol):
    """The Section 3.2 scheme for arbitrary ``N`` (source capacity 1).

    Args:
        num_nodes: receiver count.
        loss_aware: drive the greedy exchange from the engine's actual
            holdings instead of the internal loss-free model.  Required when
            simulating with a ``drop_rule``; slightly slower otherwise
            identical (the models coincide on loss-free runs).
    """

    def __init__(self, num_nodes: int, *, loss_aware: bool = False) -> None:
        if num_nodes < 1:
            raise ConstructionError(f"need at least one receiver, got {num_nodes}")
        self._num_nodes = num_nodes
        self.loss_aware = loss_aware
        self._lane = _CascadeLane(num_nodes, list(range(1, num_nodes + 1)))

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def plan(self) -> list[CubeSpec]:
        return self._lane.plan

    @property
    def node_ids(self) -> Sequence[int]:
        return range(1, self._num_nodes + 1)

    @property
    def source_ids(self) -> frozenset[int]:
        return frozenset((SOURCE_ID,))

    def reset(self) -> None:
        self._lane.reset()

    def transmissions(self, slot: int, view: HoldingsView) -> Iterable[Transmission]:
        return self._lane.transmissions(
            slot, SOURCE_ID, view, loss_aware=self.loss_aware
        )

    def timetable(self, num_slots: int) -> tuple[np.ndarray, ...]:
        """The loss-free schedule's first ``num_slots`` slots as int columns
        ``(slots, senders, receivers, packets, latencies, trees)``, in
        :meth:`transmissions` order (see :func:`_cascade_timetable`)."""
        return _cascade_timetable([self._lane], num_slots)

    def packet_available_slot(self, packet: int) -> int:
        # The hypercube source emits packet t during slot t — inherently live.
        return packet

    def slots_for_packets(self, num_packets: int) -> int:
        """Slots guaranteeing every node holds packets ``0..num_packets-1``."""
        return cascade_horizon(self.plan, num_packets)

    def describe(self) -> str:
        dims = "+".join(str(cube.k) for cube in self.plan)
        return f"hypercube-cascade(N={self._num_nodes}, cubes k={dims})"


class HypercubeProtocol(HypercubeCascadeProtocol):
    """The Section 3.1 scheme — requires special ``N = 2^k - 1``."""

    def __init__(self, num_nodes: int, *, loss_aware: bool = False) -> None:
        self.k = dimension_for_population(num_nodes)
        super().__init__(num_nodes, loss_aware=loss_aware)
        if len(self.plan) != 1:
            raise ConstructionError(
                f"special N = 2^k - 1 must yield a single cube, got "
                f"{len(self.plan)} for N={num_nodes}"
            )

    def describe(self) -> str:
        return f"hypercube(N={self._num_nodes}, k={self.k})"


def lane_sizes(num_nodes: int, degree: int) -> list[int]:
    """Receivers per lane of :class:`GroupedHypercubeProtocol`: ``min(d, N)``
    lanes (never an empty one) of ``ceil(N/d)`` or ``floor(N/d)`` receivers,
    the larger first."""
    if num_nodes < 1:
        raise ConstructionError(f"need at least one receiver, got {num_nodes}")
    if degree < 1:
        raise ConstructionError(f"source capacity d must be >= 1, got {degree}")
    lanes = min(degree, num_nodes)
    base, extra = divmod(num_nodes, lanes)
    return [base + 1] * extra + [base] * (lanes - extra)


class GroupedHypercubeProtocol(StreamingProtocol):
    """A capacity-``d`` source streaming ``d`` parallel cascades (§3.2 end).

    The ``N`` receivers are divided as evenly as possible into ``d`` groups
    (sizes ``ceil(N/d)`` or ``floor(N/d)``); the source replicates each packet
    to all ``d`` lanes in the same slot, so delays scale with ``N/d``.
    """

    def __init__(self, num_nodes: int, degree: int) -> None:
        sizes = lane_sizes(num_nodes, degree)
        self._num_nodes = num_nodes
        self.degree = len(sizes)
        self._lanes: list[_CascadeLane] = []
        start = 1
        for size in sizes:
            ids = list(range(start, start + size))
            self._lanes.append(_CascadeLane(size, ids))
            start += size

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def lanes(self) -> list[_CascadeLane]:
        return self._lanes

    @property
    def node_ids(self) -> Sequence[int]:
        return range(1, self._num_nodes + 1)

    @property
    def source_ids(self) -> frozenset[int]:
        return frozenset((SOURCE_ID,))

    def reset(self) -> None:
        for lane in self._lanes:
            lane.reset()

    def transmissions(self, slot: int, view: HoldingsView) -> Iterable[Transmission]:
        out: list[Transmission] = []
        for lane in self._lanes:
            out.extend(lane.transmissions(slot, SOURCE_ID))
        return out

    def timetable(self, num_slots: int) -> tuple[np.ndarray, ...]:
        """The first ``num_slots`` slots as int columns, lanes interleaved per
        slot in lane order (see :func:`_cascade_timetable`)."""
        return _cascade_timetable(self._lanes, num_slots)

    def send_capacity(self, node: int) -> int:
        return self.degree if node == SOURCE_ID else 1

    def packet_available_slot(self, packet: int) -> int:
        return packet

    def slots_for_packets(self, num_packets: int) -> int:
        return max(cascade_horizon(lane.plan, num_packets) for lane in self._lanes)

    def describe(self) -> str:
        sizes = ",".join(str(len(lane.id_map)) for lane in self._lanes)
        return f"grouped-hypercube(N={self._num_nodes}, d={self.degree}, groups=[{sizes}])"
