"""Slack provisioning: carving spare capacity out of the paper's schedules.

The paper's communication model has **zero throughput slack** — every
receiver's one-receive-per-slot budget is exactly consumed by the stream — so
a lost packet can never be re-delivered (``tests/test_faults.py``).  The paper
notes real deployments need spare capacity and declines to model it; this
module supplies that spare capacity *without modifying the underlying
schedule*, in either of the two canonical ways:

* ``thin`` — the source stream is thinned to rate ``1 - ε``: one slot in
  every ``round(1/ε)`` is a **repair slot** in which the wrapped schedule is
  paused, leaving every node's full send/receive budget free for
  retransmissions.  The wrapped protocol runs unchanged on the dilated clock
  (its slot ``j`` executes in wall-clock slot ``j + ⌊j/(k-1)⌋``), so its
  correctness proofs carry over verbatim; the price is a ``1/(1-ε)`` factor
  on every delay, which :mod:`repro.repair` measures.
* ``capacity`` — receivers are granted ``1 + c`` receive (and send) capacity,
  so repairs ride alongside the undilated schedule.  This matches the paper's
  "spare bandwidth" aside and costs no extra delay, but assumes fatter links.

:class:`SlackProvisioner` wraps any
:class:`~repro.core.protocol.StreamingProtocol`; the
:class:`~repro.repair.retransmit.RetransmissionCoordinator` then schedules
repairs into the provisioned slack.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.core.packet import Transmission
from repro.core.protocol import HoldingsView, StreamingProtocol

__all__ = ["SlackPolicy", "SlackProvisioner", "THIN", "CAPACITY"]

THIN = "thin"
CAPACITY = "capacity"
_MODES = (THIN, CAPACITY)


@dataclass(frozen=True, slots=True)
class SlackPolicy:
    """How much spare capacity to provision, and in which currency.

    Attributes:
        epsilon: fraction of throughput sacrificed for repair in ``thin``
            mode; the repair period is ``k = round(1/epsilon)`` (so ``ε``
            must be in ``(0, 0.5]``).  In ``capacity`` mode it only sizes
            the trailing repair margin (four periods), so it must be ``> 0``.
        mode: ``"thin"`` (insert repair slots, rate ``1 - ε``) or
            ``"capacity"`` (receivers get ``1 + extra`` receive/send budget).
        extra: additional per-slot capacity granted to every receiver in
            ``capacity`` mode (the ``c`` of "``1 + c`` receive capacity").
    """

    epsilon: float = 0.05
    mode: str = THIN
    extra: int = 1

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ReproError(f"unknown slack mode {self.mode!r}; choose from {_MODES}")
        if self.mode == THIN and not 0 < self.epsilon <= 0.5:
            raise ReproError(
                f"thin-mode epsilon must be in (0, 0.5], got {self.epsilon}"
            )
        if not self.epsilon > 0:
            raise ReproError(f"epsilon must be > 0, got {self.epsilon}")
        if self.mode == CAPACITY and self.extra < 1:
            raise ReproError(f"capacity-mode extra must be >= 1, got {self.extra}")

    @property
    def period(self) -> int:
        """Repair period ``k``: every ``k``-th slot is a repair slot (thin mode)."""
        return max(2, round(1 / self.epsilon))


class SlackProvisioner(StreamingProtocol):
    """Wrap a protocol so spare repair capacity exists, schedule untouched.

    In ``thin`` mode the wrapper owns the clock: wall-clock ("outer") slots
    where ``(t + 1) % k == 0`` are repair slots that emit no data; all other
    slots step the wrapped protocol sequentially and restamp its
    transmissions to the outer clock.  In ``capacity`` mode the clock is the
    identity and only the capacity accessors change.

    The wrapper is transparent to the engine's validator — data slots use the
    wrapped protocol's own capacities, so any run that completes under
    ``validate=True`` certifies that repairs really did fit in the slack.
    """

    def __init__(self, protocol: StreamingProtocol, policy: SlackPolicy) -> None:
        self.inner = protocol
        self.policy = policy

    # ----------------------------------------------------------------- clock
    @property
    def period(self) -> int:
        return self.policy.period

    def is_repair_slot(self, outer_slot: int) -> bool:
        """True if no data is scheduled in ``outer_slot`` (thin mode only)."""
        if self.policy.mode != THIN:
            return False
        return (outer_slot + 1) % self.period == 0

    def inner_slot(self, outer_slot: int) -> int:
        """Wrapped-protocol slot index executing during data slot ``outer_slot``."""
        if self.policy.mode != THIN:
            return outer_slot
        return outer_slot - (outer_slot + 1) // self.period

    def outer_slot(self, inner_slot: int) -> int:
        """Wall-clock slot in which the wrapped protocol's ``inner_slot`` runs."""
        if self.policy.mode != THIN:
            return inner_slot
        return inner_slot + inner_slot // (self.period - 1)

    # -------------------------------------------------------------- protocol
    @property
    def node_ids(self) -> Sequence[int]:
        return self.inner.node_ids

    @property
    def source_ids(self) -> frozenset[int]:
        return self.inner.source_ids

    def transmissions(self, slot: int, view: HoldingsView) -> Iterable[Transmission]:
        if self.is_repair_slot(slot):
            return []
        j = self.inner_slot(slot)
        batch = self.inner.transmissions(j, view)
        if self.policy.mode != THIN:
            return batch
        return [
            Transmission(
                slot=slot,
                sender=tx.sender,
                receiver=tx.receiver,
                packet=tx.packet,
                latency=tx.latency,
                tree=tx.tree,
            )
            for tx in batch
        ]

    def send_capacity(self, node: int) -> int:
        base = self.inner.send_capacity(node)
        if self.policy.mode == CAPACITY and node not in self.inner.source_ids:
            return base + self.policy.extra
        return base

    def recv_capacity(self, node: int) -> int:
        base = self.inner.recv_capacity(node)
        if self.policy.mode == CAPACITY and node not in self.inner.source_ids:
            return base + self.policy.extra
        return base

    def packet_available_slot(self, packet: int) -> int:
        return self.outer_slot(self.inner.packet_available_slot(packet))

    def reset(self) -> None:
        self.inner.reset()

    def slots_for_packets(self, num_packets: int) -> int:
        """Outer slots covering the wrapped schedule plus trailing repair slack.

        Requires the wrapped protocol to provide ``slots_for_packets``.  The
        trailing margin (four repair periods) leaves room to retransmit
        losses that strike the last packets of the horizon.
        """
        inner_slots = self.inner.slots_for_packets(num_packets)
        if self.policy.mode != THIN:
            return inner_slots + 4 * self.period
        return self.outer_slot(inner_slots) + 4 * self.period

    def describe(self) -> str:
        if self.policy.mode == THIN:
            slack = f"thin ε={self.policy.epsilon:g} (repair slot every {self.period})"
        else:
            slack = f"capacity +{self.policy.extra}"
        return f"slack[{slack}] over {self.inner.describe()}"
