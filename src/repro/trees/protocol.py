"""Engine-driven multi-tree streaming protocol.

Wraps a :class:`~repro.trees.forest.MultiTreeForest` and the round-robin
schedule of :mod:`repro.trees.schedule` as a
:class:`~repro.core.protocol.StreamingProtocol`, so the full packet-level
simulator can validate the scheme against the communication model and produce
measured traces to compare with the analytic predictions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.packet import Transmission
from repro.core.protocol import HoldingsView, StreamingProtocol
from repro.trees.forest import SOURCE_ID, MultiTreeForest
from repro.trees.schedule import (
    LIVE_PREBUFFERED,
    PRERECORDED,
    ScheduleParams,
    multi_tree_horizon,
    slot_transmissions,
    timetable_columns,
)

__all__ = ["MultiTreeProtocol"]


class MultiTreeProtocol(StreamingProtocol):
    """The paper's multi-tree scheme as a simulatable protocol.

    Args:
        num_nodes: receiver count ``N``.
        degree: tree degree ``d`` (also the source's per-slot send capacity).
        construction: ``"structured"`` or ``"greedy"``.
        mode: ``"prerecorded"`` or ``"live_prebuffered"``.
        latency: intra-cluster link latency ``T_i`` in slots (paper: 1).
        verify: run the full structural invariant check at construction time.
    """

    def __init__(
        self,
        num_nodes: int,
        degree: int,
        *,
        construction: str = "structured",
        mode: str = PRERECORDED,
        latency: int = 1,
        verify: bool = True,
    ) -> None:
        self.forest = MultiTreeForest.construct(num_nodes, degree, construction)
        if verify:
            self.forest.verify()
        self.params = ScheduleParams(mode=mode, latency=latency)
        self._construction = construction

    # --------------------------------------------------------------- topology
    @property
    def num_nodes(self) -> int:
        return self.forest.num_nodes

    @property
    def degree(self) -> int:
        return self.forest.degree

    @property
    def node_ids(self) -> Sequence[int]:
        return self.forest.real_nodes

    @property
    def source_ids(self) -> frozenset[int]:
        return frozenset((SOURCE_ID,))

    # --------------------------------------------------------------- schedule
    def transmissions(self, slot: int, view: HoldingsView) -> Iterable[Transmission]:
        return slot_transmissions(self.forest, slot, self.params)

    def timetable(self, num_slots: int) -> tuple[np.ndarray, ...]:
        """The first ``num_slots`` slots' transmissions as int columns
        ``(slots, senders, receivers, packets, latencies, trees)``, in
        :meth:`transmissions` order (see :func:`timetable_columns`)."""
        return timetable_columns(self.forest, num_slots, self.params)

    def send_capacity(self, node: int) -> int:
        return self.degree if node == SOURCE_ID else 1

    def packet_available_slot(self, packet: int) -> int:
        # Live streams generate packet p during slot p; pre-recorded streams
        # hold everything from slot 0.
        return packet if self.params.mode == LIVE_PREBUFFERED else 0

    def slots_for_packets(self, num_packets: int) -> int:
        """Slots guaranteeing every real node holds packets ``0..num_packets-1``
        (:func:`~repro.trees.schedule.multi_tree_horizon` of the built forest)."""
        return multi_tree_horizon(
            self.forest.height, self.degree, num_packets, self.params
        )

    def describe(self) -> str:
        return (
            f"multi-tree(N={self.num_nodes}, d={self.degree}, "
            f"{self._construction}, {self.params.mode})"
        )
