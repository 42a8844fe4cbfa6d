"""The dict-table schedule checker, kept as the reference for the columnar one.

This is :class:`repro.check.invariants.ScheduleFacts` and its nine rules as
they were before the model checker read NumPy columns: ``Counter`` and
dict fact tables built in one Python pass over the flat columns, and the
playback rules scored by :mod:`repro.core.playback`'s per-node functions.
``tests/test_check_schedule.py`` holds the columnar checker's
:class:`~repro.check.CheckReport` equal to :func:`reference_report`'s on
random schedule corruptions.  Nothing in ``src`` imports it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator

from repro.check import CheckReport, Violation
from repro.core.playback import buffer_peak, earliest_safe_start
from repro.core.protocol import StreamingProtocol
from repro.exec.compiler import CompiledSchedule

__all__ = ["ScheduleFacts", "REFERENCE_RULES", "reference_report"]


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


#: The rules in the order ``check_schedule`` evaluates them.
REFERENCE_RULES = (
    check_well_formed,
    check_send_capacity,
    check_recv_capacity,
    check_causality,
    check_duplicate_delivery,
    check_coverage,
    check_playability,
    check_delay_bound,
    check_buffer_bound,
)


def reference_report(
    schedule: CompiledSchedule,
    protocol: StreamingProtocol,
    num_packets: int,
    *,
    description: str,
    max_per_rule: int = 25,
) -> CheckReport:
    """The report ``check_schedule`` returned with the dict fact table:
    exact counts, at most ``max_per_rule`` findings per rule."""
    facts = ScheduleFacts(schedule, protocol, num_packets)
    kept: list[Violation] = []
    counts: Counter[str] = Counter()
    for invariant in REFERENCE_RULES:
        for violation in invariant(facts):
            counts[violation.rule] += 1
            if counts[violation.rule] <= max_per_rule:
                kept.append(violation)
    return CheckReport(
        description=description,
        num_slots=schedule.num_slots,
        num_transmissions=schedule.size,
        num_nodes=schedule.num_nodes,
        num_packets=num_packets,
        violations=tuple(kept),
        counts=dict(counts),
        num_invariants=len(REFERENCE_RULES),
    )
