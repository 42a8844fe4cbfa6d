"""The individual schedule invariants and their :class:`Violation` records.

Each invariant is a generator over a precomputed :class:`ScheduleFacts` view
of one :class:`~repro.exec.compiler.CompiledSchedule`: the schedule's NumPy
columns (:meth:`~repro.exec.compiler.CompiledSchedule.columns`), the table
of delivered ``(receiver, packet)`` pairs, and the first arrivals of the
measured prefix.  A rule is a column predicate and builds
:class:`Violation` records only for the rows it flags.  Invariants never
raise on a bad schedule — they *emit* structured findings, so a single check
pass reports every broken rule instead of stopping at the first (the engine's
:class:`~repro.core.validation.SlotValidator` is the raising, in-band
counterpart).  The playback rules read the batch kernel's scorer
(:func:`~repro.exec.batch.score_arrivals`), the one closed-form playback
scorer.

The same invariants certify a finished engine trace: :func:`repro.check.check_trace`
packs its transmission log into a schedule and runs the structural rules
plus :func:`check_arrivals`, the one trace-only rule.

The rules and the paper claims they certify are catalogued in
``docs/CHECKS.md``; :data:`RULES` is the machine-readable index.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro.exec.batch import DEFAULT_ELEMENT_BUDGET, score_arrivals
from repro.exec.compiler import Column, CompiledSchedule

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


def _pair_keys(nodes: Column, packets: Column) -> Column:
    """One int64 per ``(node, packet)`` pair of int32 ids, in pair order."""
    return nodes * 2**32 + (packets + 2**31)


class ScheduleFacts:
    """Derived facts of one compiled schedule, computed once and shared.

    The invariants below only read from this view: the schedule's
    ``columns`` (:class:`~repro.exec.compiler.ScheduleColumns`), the
    model's capacity and availability callables, and

    * the delivered ``(receiver, packet)`` pairs in pair order:
      ``pair_keys``, ``pair_index`` (the flat index of each pair's first
      arrival) and ``pair_counts`` (its deliveries);
    * the measured prefix, packets ``0..P-1`` reaching a receiver node
      before the horizon: ``(P, nodes)`` matrices ``first_arrivals`` and
      ``held`` (a pair never delivered is not ``held``; its entry means
      nothing), and ``complete``, the nodes whose measured trace is exactly
      that prefix, the ones the playback rules score.
    """

    __slots__ = (
        "schedule", "num_packets", "columns", "send_capacity",
        "recv_capacity", "packet_available_slot", "pair_keys", "pair_index",
        "pair_counts", "first_arrivals", "held", "complete", "_scores",
    )

    def __init__(
        self,
        schedule: CompiledSchedule,
        num_packets: int,
        send_capacity: Callable[[int], int],
        recv_capacity: Callable[[int], int],
        packet_available_slot: Callable[[int], int],
    ) -> None:
        self.schedule = schedule
        self.num_packets = num_packets
        self.send_capacity = send_capacity
        self.recv_capacity = recv_capacity
        self.packet_available_slot = packet_available_slot
        c = self.columns = schedule.columns()
        keys = _pair_keys(c.receivers, c.packets)
        order = np.lexsort((c.arrivals, keys))
        self.pair_keys, first, self.pair_counts = np.unique(
            keys[order], return_index=True, return_counts=True
        )
        self.pair_index = order[first]
        rows = c.receiver_rows[self.pair_index]
        packets = c.packets[self.pair_index]
        arrivals = c.arrivals[self.pair_index]
        measured = (arrivals < schedule.num_slots) & (rows >= 0) & (rows < c.num_rows)
        prefix = measured & (packets >= 0) & (packets < num_packets)
        self.first_arrivals = np.zeros((num_packets, c.num_rows), dtype=np.int32)
        self.held = np.zeros((num_packets, c.num_rows), dtype=bool)
        self.first_arrivals[packets[prefix], rows[prefix]] = arrivals[prefix]
        self.held[packets[prefix], rows[prefix]] = True
        # A delivered negative packet id also spoils a measured trace.
        stray = np.bincount(rows[measured & (packets < 0)], minlength=c.num_rows)
        self.complete = self.held.all(axis=0) & (stray == 0) & (num_packets > 0)
        self._scores: tuple[Column, Column, Column] | None = None

    def scores(self) -> tuple[Column, Column, Column]:
        """``(rows, start_delays, buffer_peaks)`` of the ``complete`` nodes
        from the batch kernel's scorer, computed on first use, in node
        chunks that keep its few ``(P, nodes)`` temporaries under budget."""
        if self._scores is None:
            rows = np.flatnonzero(self.complete)
            starts, peaks = np.empty((2, rows.size), dtype=np.int64)
            chunk = max(1, DEFAULT_ELEMENT_BUDGET // max(1, 4 * self.num_packets))
            for lo in range(0, rows.size, chunk):
                start, peak, _ = score_arrivals(
                    self.first_arrivals[:, rows[lo:lo + chunk], None]
                )
                starts[lo:lo + chunk], peaks[lo:lo + chunk] = start[0], peak[0]
            self._scores = (rows, starts, peaks)
        return self._scores


# ------------------------------------------------------------------ structural
def check_well_formed(facts: ScheduleFacts) -> Iterator[Violation]:
    """Transmissions reference known nodes, sane packets, in-horizon slots."""
    c = facts.columns
    bad_sender = c.sender_rows < 0
    bad_receiver = (c.receiver_rows < 0) | (c.receiver_rows >= c.num_rows)
    bad_packet = c.packets < 0
    bad_arrival = c.arrivals < c.slots
    flagged = bad_sender | bad_receiver | bad_packet | bad_arrival
    for i in np.flatnonzero(flagged).tolist():
        slot, sender, receiver = c.slots[i].item(), c.senders[i].item(), c.receivers[i].item()
        packet, arrival = c.packets[i].item(), c.arrivals[i].item()
        if bad_sender[i]:
            yield Violation("well-formed", slot, sender, packet,
                            f"sender {sender} is not a known node")
        if bad_receiver[i]:
            yield Violation("well-formed", slot, receiver, packet,
                            f"receiver {receiver} is not a receiver node")
        if bad_packet[i]:
            yield Violation("well-formed", slot, sender, packet,
                            f"negative packet id {packet}")
        if bad_arrival[i]:
            # Latency-1 links deliver at the *end* of the sending slot
            # (arrival_slot = slot + latency - 1), so arrival >= slot always.
            yield Violation(
                "well-formed", slot, receiver, packet,
                f"arrival slot {arrival} precedes the sending slot {slot}",
            )


def _over_capacity(
    facts: ScheduleFacts, rule: str, verb: str, slots: Column, nodes: Column,
    rows: Column, capacity: Callable[[int], int],
) -> Iterator[Violation]:
    """Findings for the ``(slot, node)`` groups, in that order, holding more
    transmissions than the node's capacity.  The model is asked once per
    known node; any other id (row -1) is an ordinary receiver, capacity 1."""
    _, first, counts = np.unique(
        _pair_keys(slots, nodes), return_index=True, return_counts=True
    )
    known = (*facts.schedule.node_ids, *facts.schedule.source_ids)
    caps = np.array([capacity(node) for node in known] + [1])[rows[first]]
    for group in np.flatnonzero(counts > caps).tolist():
        i = first[group]
        yield Violation(
            rule, slots[i].item(), nodes[i].item(), None,
            f"{verb} {counts[group]} packets, capacity {caps[group]}",
        )


def check_send_capacity(facts: ScheduleFacts) -> Iterator[Violation]:
    """Per-slot sends per node within the model's ``send_capacity``."""
    c = facts.columns
    return _over_capacity(facts, "send-capacity", "sent", c.slots, c.senders,
                          c.sender_rows, facts.send_capacity)


def check_recv_capacity(facts: ScheduleFacts) -> Iterator[Violation]:
    """Per-slot receives per receiver within the model's ``recv_capacity``
    (receives count at the arrival slot; a source's are not capped)."""
    c = facts.columns
    kept = np.flatnonzero(c.receiver_rows < c.num_rows)
    return _over_capacity(facts, "recv-capacity", "receives", c.arrivals[kept],
                          c.receivers[kept], c.receiver_rows[kept], facts.recv_capacity)


def check_causality(facts: ScheduleFacts) -> Iterator[Violation]:
    """Forwarded packets were held strictly before the sending slot."""
    c = facts.columns
    source = c.sender_rows >= c.num_rows
    available_at = np.zeros(c.slots.size, dtype=np.int64)
    if source.any():
        distinct, inverse = np.unique(c.packets[source], return_inverse=True)
        available = facts.packet_available_slot
        available_at[source] = np.array(
            [available(packet) for packet in distinct.tolist()], dtype=np.int64
        )[inverse.reshape(-1)]
    early = source & (c.slots < available_at)
    # The sender's first arrival of the packet, from the pair table.
    query = _pair_keys(c.senders, c.packets)
    at = np.minimum(np.searchsorted(facts.pair_keys, query), facts.pair_keys.size - 1)
    found = facts.pair_keys[at] == query
    held_at = c.arrivals[facts.pair_index[at]]
    unheld = ~source & (~found | (held_at >= c.slots))
    for i in np.flatnonzero(early | unheld).tolist():
        slot, sender, packet = c.slots[i].item(), c.senders[i].item(), c.packets[i].item()
        if source[i]:
            yield Violation(
                "causality", slot, sender, packet,
                f"source emitted packet {packet} only available from "
                f"slot {available_at[i]} (live stream)",
            )
        else:
            yield Violation(
                "causality", slot, sender, packet,
                f"forwarded packet {packet} "
                + (f"that only arrives at slot {held_at[i]}" if found[i]
                   else "it never receives"),
            )


def check_duplicate_delivery(facts: ScheduleFacts) -> Iterator[Violation]:
    """Each (receiver, packet) pair is delivered at most once."""
    c = facts.columns
    for pair in np.flatnonzero(facts.pair_counts > 1).tolist():
        i = facts.pair_index[pair]
        yield Violation(
            "duplicate-delivery", None, c.receivers[i].item(), c.packets[i].item(),
            f"delivered {facts.pair_counts[pair]} times (wasted receive slots)",
        )


# --------------------------------------------------------------------- global
def check_coverage(facts: ScheduleFacts) -> Iterator[Violation]:
    """Every receiver holds packets ``0..P-1`` by the end of the horizon."""
    horizon = facts.schedule.num_slots
    node_ids = facts.schedule.node_ids
    for row in np.flatnonzero(~facts.held.all(axis=0)).tolist():
        missing = np.flatnonzero(~facts.held[:, row]).tolist()
        head = ", ".join(map(str, missing[:5]))
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        yield Violation(
            "coverage", None, node_ids[row], missing[0],
            f"missing packets {head}{more} within the {horizon}-slot horizon",
        )


def check_playability(facts: ScheduleFacts) -> Iterator[Violation]:
    """In-order playback at the earliest safe start fits the horizon."""
    horizon = facts.schedule.num_slots
    rows, starts, _ = facts.scores()
    # Packet P-1 is consumed at the end of slot start + P - 2; playback
    # must complete inside the compiled horizon to be schedulable.
    finishes = starts + facts.num_packets - 1
    for k in np.flatnonzero(finishes > horizon).tolist():
        yield Violation(
            "playability", None, facts.schedule.node_ids[rows[k]], None,
            f"in-order playback needs start delay {starts[k]} and finishes at "
            f"slot {finishes[k]}, beyond the {horizon}-slot horizon",
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
    rows, starts, _ = facts.scores()
    for k in np.flatnonzero(starts > bound).tolist():
        yield Violation(
            "delay-bound", None, facts.schedule.node_ids[rows[k]], None,
            f"earliest hiccup-free start {starts[k]} exceeds the scheme bound "
            f"{bound:g}",
        )


def check_buffer_bound(facts: ScheduleFacts) -> Iterator[Violation]:
    """Peak buffer occupancy within the scheme's theorem bound."""
    _, bound = _theorem_bounds(facts)
    if bound is None:
        return
    rows, _, peaks = facts.scores()
    for k in np.flatnonzero(peaks > bound).tolist():
        yield Violation(
            "buffer-bound", None, facts.schedule.node_ids[rows[k]], None,
            f"peak buffer {peaks[k]} packets exceeds the scheme bound {bound:g}",
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
    c = facts.columns
    first = facts.pair_index[c.arrivals[facts.pair_index] < horizon]
    logged: dict[int, dict[int, int]] = {node: {} for node in recorded}
    for node, packet, arrival in zip(
        c.receivers[first].tolist(), c.packets[first].tolist(),
        c.arrivals[first].tolist(), strict=True,
    ):
        if node in logged:
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
