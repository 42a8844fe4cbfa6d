"""The individual schedule invariants and their :class:`Violation` records.

Each invariant is a generator over a precomputed :class:`ScheduleFacts` view
of one :class:`~repro.exec.compiler.CompiledSchedule`.  Invariants never
raise on a bad schedule — they *emit* structured findings, so a single check
pass reports every broken rule instead of stopping at the first (the engine's
:class:`~repro.core.validation.SlotValidator` is the raising, in-band
counterpart).

The same invariants certify a finished engine trace: :func:`repro.check.check_trace`
lowers its transmission log into a schedule and runs the structural rules
plus :func:`check_arrivals`, the one trace-only rule.

The rules and the paper claims they certify are catalogued in
``docs/CHECKS.md``; :data:`RULES` is the machine-readable index.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.core.playback import buffer_peak, earliest_safe_start
from repro.core.protocol import StreamingProtocol
from repro.exec.compiler import CompiledSchedule

__all__ = [
    "RULES",
    "Violation",
    "ScheduleFacts",
    "check_well_formed",
    "check_send_capacity",
    "check_recv_capacity",
    "check_causality",
    "check_duplicate_delivery",
    "check_coverage",
    "check_playability",
    "check_delay_bound",
    "check_buffer_bound",
    "check_arrivals",
]

#: rule id -> one-line description (docs/CHECKS.md holds the full catalogue).
RULES: dict[str, str] = {
    "well-formed": "every transmission references known nodes and a "
    "non-negative packet, and arrives no earlier than its sending slot "
    "(arrival = slot + latency - 1)",
    "send-capacity": "per slot, each node sends at most send_capacity(node) "
    "packets (receivers 1, the source d, super nodes D) — Section 2's model",
    "recv-capacity": "per slot, each receiver receives at most "
    "recv_capacity(node) packets — Section 2's model",
    "causality": "a non-source sender holds every packet it forwards strictly "
    "before the sending slot; the source only emits packets already available "
    "(live streams: packet t from slot t)",
    "duplicate-delivery": "no (receiver, packet) pair is delivered more than "
    "once across the horizon — the paper's schedules never waste a receive slot",
    "coverage": "every receiver holds the full packet prefix 0..P-1 by the end "
    "of the compiled horizon (exactly-once full coverage)",
    "playability": "started at its earliest hiccup-free delay, every node "
    "plays packets 0..P-1 in order within the compiled horizon",
    "delay-bound": "worst-case playback delay respects the scheme's theorem "
    "bound (multi-tree: h*d, Theorem 2; hypercube cascade: (k1+1)^2, Prop 2)",
    "buffer-bound": "peak buffer respects the scheme's theorem bound "
    "(multi-tree: h*d packets, Theorem 2; hypercube: 2 packets, Thm 1/§3)",
    "arrivals": "(traces only) each receiver's recorded arrivals are exactly "
    "the first in-horizon deliveries of the transmission log",
}


@dataclass(frozen=True, slots=True)
class Violation:
    """One structured finding of the schedule model checker.

    Attributes:
        rule: rule id (a key of :data:`RULES`).
        slot: slot the finding anchors to (None for horizon-global rules).
        node: node id involved (None when not node-specific).
        packet: packet id involved (None when not packet-specific).
        detail: human-readable explanation with the observed numbers.
    """

    rule: str
    slot: int | None
    node: int | None
    packet: int | None
    detail: str

    def __str__(self) -> str:
        where = []
        if self.slot is not None:
            where.append(f"slot {self.slot}")
        if self.node is not None:
            where.append(f"node {self.node}")
        if self.packet is not None:
            where.append(f"packet {self.packet}")
        prefix = f" [{', '.join(where)}]" if where else ""
        return f"{self.rule}{prefix}: {self.detail}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "slot": self.slot,
            "node": self.node,
            "packet": self.packet,
            "detail": self.detail,
        }


class ScheduleFacts:
    """Derived facts of one compiled schedule, computed once and shared.

    The invariants below only read from this view; building it is a single
    O(transmissions) pass over the flat columns.
    """

    __slots__ = (
        "schedule", "protocol", "num_packets", "node_set", "source_set",
        "sends", "recvs", "deliveries", "first_arrival", "arrivals_by_node",
    )

    def __init__(
        self,
        schedule: CompiledSchedule,
        protocol: StreamingProtocol,
        num_packets: int,
    ) -> None:
        self.schedule = schedule
        self.protocol = protocol
        self.num_packets = num_packets
        self.node_set = frozenset(schedule.node_ids)
        self.source_set = frozenset(schedule.source_ids)
        # Per-slot traffic: sends counted at the emission slot, receives at
        # the arrival slot (with latency 1 these coincide shifted by one).
        self.sends: Counter[tuple[int, int]] = Counter()
        self.recvs: Counter[tuple[int, int]] = Counter()
        self.deliveries: Counter[tuple[int, int]] = Counter()
        self.first_arrival: dict[tuple[int, int], int] = {}
        first = self.first_arrival
        starts = schedule.starts
        senders, receivers = schedule.senders, schedule.receivers
        packets, arrivals = schedule.packets, schedule.arrivals
        for slot in range(schedule.num_slots):
            for i in range(starts[slot], starts[slot + 1]):
                self.sends[(slot, senders[i])] += 1
                receiver, packet, arrival = receivers[i], packets[i], arrivals[i]
                self.recvs[(arrival, receiver)] += 1
                self.deliveries[(receiver, packet)] += 1
                key = (receiver, packet)
                if key not in first or arrival < first[key]:
                    first[key] = arrival
        # Per-node arrival traces of the measured prefix, for the playback
        # rules (same truncation semantics as core.metrics).
        self.arrivals_by_node: dict[int, dict[int, int]] = {
            node: {} for node in schedule.node_ids
        }
        horizon = schedule.num_slots
        for (node, packet), arrival in first.items():
            if packet < num_packets and arrival < horizon and node in self.arrivals_by_node:
                self.arrivals_by_node[node][packet] = arrival

    # Transmissions in flat order with their emission slot.
    def iter_flat(self) -> Iterator[tuple[int, int, int, int, int, int]]:
        """Yield ``(index, slot, sender, receiver, packet, arrival)``."""
        schedule = self.schedule
        starts = schedule.starts
        for slot in range(schedule.num_slots):
            for i in range(starts[slot], starts[slot + 1]):
                yield (
                    i, slot, schedule.senders[i], schedule.receivers[i],
                    schedule.packets[i], schedule.arrivals[i],
                )


# ------------------------------------------------------------------ structural
def check_well_formed(facts: ScheduleFacts) -> Iterator[Violation]:
    """Transmissions reference known nodes, sane packets, in-horizon slots."""
    known = facts.node_set | facts.source_set
    for _, slot, sender, receiver, packet, arrival in facts.iter_flat():
        if sender not in known:
            yield Violation("well-formed", slot, sender, packet,
                            f"sender {sender} is not a known node")
        if receiver not in facts.node_set:
            yield Violation("well-formed", slot, receiver, packet,
                            f"receiver {receiver} is not a receiver node")
        if packet < 0:
            yield Violation("well-formed", slot, sender, packet,
                            f"negative packet id {packet}")
        if arrival < slot:
            # Latency-1 links deliver at the *end* of the sending slot
            # (arrival_slot = slot + latency - 1), so arrival >= slot always.
            yield Violation(
                "well-formed", slot, receiver, packet,
                f"arrival slot {arrival} precedes the sending slot {slot}",
            )


def check_send_capacity(facts: ScheduleFacts) -> Iterator[Violation]:
    """Per-slot sends per node within ``protocol.send_capacity``."""
    capacity = facts.protocol.send_capacity
    for (slot, node), count in sorted(facts.sends.items()):
        cap = capacity(node)
        if count > cap:
            yield Violation(
                "send-capacity", slot, node, None,
                f"sent {count} packets, capacity {cap}",
            )


def check_recv_capacity(facts: ScheduleFacts) -> Iterator[Violation]:
    """Per-slot receives per receiver within ``protocol.recv_capacity``."""
    capacity = facts.protocol.recv_capacity
    for (slot, node), count in sorted(facts.recvs.items()):
        if node in facts.source_set:
            continue
        cap = capacity(node)
        if count > cap:
            yield Violation(
                "recv-capacity", slot, node, None,
                f"receives {count} packets, capacity {cap}",
            )


def check_causality(facts: ScheduleFacts) -> Iterator[Violation]:
    """Forwarded packets were held strictly before the sending slot."""
    available = facts.protocol.packet_available_slot
    first = facts.first_arrival
    for _, slot, sender, _receiver, packet, _arrival in facts.iter_flat():
        if sender in facts.source_set:
            at = available(packet)
            if slot < at:
                yield Violation(
                    "causality", slot, sender, packet,
                    f"source emitted packet {packet} only available from "
                    f"slot {at} (live stream)",
                )
            continue
        held_at = first.get((sender, packet))
        if held_at is None or held_at >= slot:
            yield Violation(
                "causality", slot, sender, packet,
                f"forwarded packet {packet} "
                + ("it never receives" if held_at is None
                   else f"that only arrives at slot {held_at}"),
            )


def check_duplicate_delivery(facts: ScheduleFacts) -> Iterator[Violation]:
    """Each (receiver, packet) pair is delivered at most once."""
    for (node, packet), count in sorted(facts.deliveries.items()):
        if count > 1:
            yield Violation(
                "duplicate-delivery", None, node, packet,
                f"delivered {count} times (wasted receive slots)",
            )


# --------------------------------------------------------------------- global
def check_coverage(facts: ScheduleFacts) -> Iterator[Violation]:
    """Every receiver holds packets ``0..P-1`` by the end of the horizon."""
    horizon = facts.schedule.num_slots
    for node in facts.schedule.node_ids:
        trace = facts.arrivals_by_node[node]
        missing = [p for p in range(facts.num_packets) if p not in trace]
        if missing:
            head = ", ".join(map(str, missing[:5]))
            more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
            yield Violation(
                "coverage", None, node, missing[0],
                f"missing packets {head}{more} within the {horizon}-slot horizon",
            )


def check_playability(facts: ScheduleFacts) -> Iterator[Violation]:
    """In-order playback at the earliest safe start fits the horizon."""
    horizon = facts.schedule.num_slots
    P = facts.num_packets
    for node in facts.schedule.node_ids:
        trace = facts.arrivals_by_node[node]
        if len(trace) != P or not trace:
            continue  # coverage already reported the gap
        start = earliest_safe_start(trace)
        # Packet P-1 is consumed at the end of slot start + P - 2; playback
        # must complete inside the compiled horizon to be schedulable.
        finish = start + P - 1
        if finish > horizon:
            yield Violation(
                "playability", None, node, None,
                f"in-order playback needs start delay {start} and finishes at "
                f"slot {finish}, beyond the {horizon}-slot horizon",
            )


def _theorem_bounds(facts: ScheduleFacts) -> tuple[float | None, float | None]:
    """``(delay_bound, buffer_bound)`` the paper claims for this schedule.

    Returns None entries for schemes/configurations without a claim (the
    baselines, non-unit latency).
    """
    key = facts.schedule.key
    if key is None or key.latency != 1:
        return None, None
    if key.scheme == "multi-tree":
        from repro.trees.analysis import theorem2_bound

        bound = float(theorem2_bound(key.num_nodes, key.degree))
        if key.mode == "live_prebuffered":
            # The live variant prebuffers d slots on top of Theorem 2.
            bound += key.degree
        return bound, bound
    if key.scheme == "hypercube":
        from repro.hypercube.cascade import worst_case_delay_bound

        return worst_case_delay_bound(key.num_nodes), 2.0
    if key.scheme == "grouped-hypercube":
        from repro.hypercube.cascade import worst_case_delay_bound

        group = max(1, math.ceil(key.num_nodes / key.degree))
        return worst_case_delay_bound(group), 2.0
    return None, None


def check_delay_bound(facts: ScheduleFacts) -> Iterator[Violation]:
    """Worst-case startup delay within the scheme's theorem bound."""
    bound, _ = _theorem_bounds(facts)
    if bound is None:
        return
    for node in facts.schedule.node_ids:
        trace = facts.arrivals_by_node[node]
        if len(trace) != facts.num_packets or not trace:
            continue
        start = earliest_safe_start(trace)
        if start > bound:
            yield Violation(
                "delay-bound", None, node, None,
                f"earliest hiccup-free start {start} exceeds the scheme bound "
                f"{bound:g}",
            )


def check_buffer_bound(facts: ScheduleFacts) -> Iterator[Violation]:
    """Peak buffer occupancy within the scheme's theorem bound."""
    _, bound = _theorem_bounds(facts)
    if bound is None:
        return
    for node in facts.schedule.node_ids:
        trace = facts.arrivals_by_node[node]
        if len(trace) != facts.num_packets or not trace:
            continue
        peak = buffer_peak(trace, earliest_safe_start(trace))
        if peak > bound:
            yield Violation(
                "buffer-bound", None, node, None,
                f"peak buffer {peak} packets exceeds the scheme bound {bound:g}",
            )


# ---------------------------------------------------------------- trace-only
def check_arrivals(
    facts: ScheduleFacts, recorded: Mapping[int, Mapping[int, int]], horizon: int
) -> Iterator[Violation]:
    """Recorded per-node arrivals agree with the logged deliveries.

    ``recorded`` maps each receiver to its packet -> arrival slot trace;
    logged deliveries arriving at or after ``horizon`` were still in flight
    when the run ended, so no node records them.
    """
    logged: dict[int, dict[int, int]] = {node: {} for node in recorded}
    for (node, packet), arrival in facts.first_arrival.items():
        if arrival < horizon and node in logged:
            logged[node][packet] = arrival
    for node in sorted(recorded):
        trace, log = recorded[node], logged[node]
        for packet in sorted(trace.keys() | log.keys()):
            at, logged_at = trace.get(packet), log.get(packet)
            if at != logged_at:
                yield Violation(
                    "arrivals", at if at is not None else logged_at, node, packet,
                    ("not recorded" if at is None else f"recorded at slot {at}")
                    + ", but the log delivers it "
                    + ("never" if logged_at is None else f"at slot {logged_at}"),
                )
