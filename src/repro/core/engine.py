"""Slot-synchronous simulation engine.

The engine advances a :class:`~repro.core.protocol.StreamingProtocol` one slot at
a time: it asks the protocol for the slot's transmissions, validates them against
the paper's communication model, and applies deliveries (respecting link
latencies, so inter-cluster transmissions with ``T_c > 1`` arrive several slots
after being sent).  The result is a :class:`SimTrace` with the full per-node
arrival record from which all of the paper's metrics — playback delay, buffer
occupancy, neighbor counts — are derived.
"""

from __future__ import annotations

import heapq
import inspect
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.core.errors import ReproError
from repro.core.node import NodeState
from repro.core.packet import Transmission
from repro.core.protocol import StreamingProtocol
from repro.core.validation import SlotValidator
from repro.obs import events as ev
from repro.obs.instrumentation import Instrumentation
from repro.obs.spans import span_scope

__all__ = ["CapacityHook", "SimConfig", "SimTrace", "SlottedEngine", "simulate"]

DropRule = Callable[[Transmission], bool]
RepairHook = Callable[
    [int, list[Transmission], list[Transmission]], "Iterable[Transmission] | None"
]
CapacityHook = Callable[[int, list[Transmission]], "Iterable[Transmission] | None"]


def _check_hook_arity(hook: Callable, name: str, arity: int, expected: str) -> None:
    """Reject hooks whose signature cannot accept the engine's call early.

    A mis-shaped hook would otherwise surface as a ``TypeError`` deep inside
    the slot loop; checking at config time turns that into an immediate,
    located :class:`ReproError`.  The engine always calls hooks positionally,
    so two shapes are rejected: signatures that cannot bind ``arity``
    positional arguments, and signatures with *required keyword-only*
    parameters the engine would never supply.  Objects whose signature cannot
    be introspected (some builtins/C callables) are let through.
    """
    try:
        signature = inspect.signature(hook)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return
    required_kwonly = [
        p.name
        for p in signature.parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY and p.default is p.empty
    ]
    if required_kwonly:
        raise ReproError(
            f"{name} has required keyword-only parameter(s) "
            f"{required_kwonly} the engine never passes — it is called "
            f"positionally as {expected}, got {name}{signature}"
        )
    try:
        signature.bind(*([None] * arity))
    except TypeError:
        raise ReproError(
            f"{name} must accept {arity} positional argument(s) — expected "
            f"signature {expected}, got {name}{signature}"
        ) from None


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Engine configuration.

    Attributes:
        num_slots: number of slots to simulate.
        validate: enforce the communication model every slot (recommended; turn
            off only for large benchmark sweeps of already-verified schemes).
        strict_duplicates: treat redundant deliveries as errors (see
            :class:`~repro.core.validation.SlotValidator`).
        record_transmissions: keep the full transmission log (memory-heavy for
            large runs; arrival traces are always kept).
        drop_rule: optional failure injector ``(Transmission) -> bool``; a True
            return drops the delivery *after* the send (the sender's capacity
            is spent, the receiver gets nothing).  The paper assumes a
            loss-free network; this hook feeds the failure-injection
            experiments, which show that under the paper's zero-slack model
            losses are permanent but isolated in both schemes (see
            :mod:`repro.workloads.faults`).
        repair_hook: optional post-delivery observer
            ``(slot, arrived, dropped) -> Iterable[Transmission] | None``
            called at the end of every slot with the transmissions delivered
            during the slot and the transmissions dropped by ``drop_rule``.
            Any transmissions it returns (stamped for ``slot + 1``) are merged
            into the next slot's batch ahead of validation; injections that
            would conflict with the protocol's own schedule — duplicate
            ``(receiver, packet)`` deliveries, capacity overflows, deliveries
            the receiver already holds — are silently skipped, so repairs
            always yield to the schedule.  This is the attachment point for
            the loss-repair subsystem (:mod:`repro.repair`).
        capacity_hook: optional bandwidth limiter
            ``(slot, batch) -> Iterable[Transmission] | None`` called after
            the slot's batch is assembled (schedule + merged repairs,
            validated when ``validate`` is on).  Any transmissions it returns
            are *throttled*: removed from the batch before sending — the link
            had no capacity for them, so unlike ``drop_rule`` losses the
            sender's capacity is not spent, nothing is delivered, and the
            cut is not visible to ``repair_hook`` as a drop.  Throttled
            transmissions are recorded in :attr:`SimTrace.throttled`.  The
            hook must return transmissions from the batch it was given;
            anything else raises :class:`ReproError`.  Like ``drop_rule``,
            sustained cuts need a holdings-aware protocol (e.g.
            :func:`repro.repair.session.make_lossy_protocol`): an oblivious
            schedule will forward packets whose upstream send was throttled
            and fail validation with a causality violation.  This is the
            attachment point for the ABR subsystem's time-varying link
            capacities (:func:`repro.abr.trace_capacity_hook`).
        instrumentation: optional :class:`~repro.obs.Instrumentation` bundle.
            When set, the engine emits structured events (``slot_start``,
            ``tx_sent``, ``tx_dropped``, ``tx_delivered``,
            ``repair_injected``, ``run_start``/``run_end``), opens one span
            per phase (``schedule``, ``repair_merge``, ``validate``,
            ``capacity_hook``, ``deliver``, ``repair_hook``) on its
            ``spans`` tracer, and bumps run counters.  ``None`` (the default)
            keeps the hot loop instrumentation-free.
        compiled_schedule: optional
            :class:`~repro.exec.compiler.CompiledSchedule` replayed in place
            of querying ``protocol.transmissions`` each slot — the fast path
            for sweeps over one configuration.  The protocol object still
            supplies topology and capacities (and validation still applies
            when enabled); only the per-slot scheduling work is skipped.  The
            compiled horizon must cover ``num_slots``.
    """

    num_slots: int
    validate: bool = True
    strict_duplicates: bool = True
    record_transmissions: bool = True
    drop_rule: DropRule | None = None
    repair_hook: RepairHook | None = None
    capacity_hook: CapacityHook | None = None
    instrumentation: Instrumentation | None = None
    compiled_schedule: object | None = None

    def __post_init__(self) -> None:
        if self.num_slots < 0:
            raise ValueError(f"num_slots must be non-negative, got {self.num_slots}")
        if self.drop_rule is not None:
            if not callable(self.drop_rule):
                raise ValueError("drop_rule must be callable or None")
            _check_hook_arity(self.drop_rule, "drop_rule", 1, "(transmission) -> bool")
        if self.repair_hook is not None:
            if not callable(self.repair_hook):
                raise ValueError("repair_hook must be callable or None")
            _check_hook_arity(
                self.repair_hook, "repair_hook", 3,
                "(slot, arrived, dropped) -> Iterable[Transmission] | None",
            )
        if self.capacity_hook is not None:
            if not callable(self.capacity_hook):
                raise ValueError("capacity_hook must be callable or None")
            _check_hook_arity(
                self.capacity_hook, "capacity_hook", 2,
                "(slot, batch) -> Iterable[Transmission] | None",
            )
        if self.compiled_schedule is not None:
            compiled = self.compiled_schedule
            if not hasattr(compiled, "batch") or not hasattr(compiled, "num_slots"):
                raise ValueError(
                    "compiled_schedule must be a CompiledSchedule "
                    "(repro.exec.compile_schedule) or None"
                )
            if compiled.num_slots < self.num_slots:
                raise ValueError(
                    f"compiled schedule covers {compiled.num_slots} slots, "
                    f"run needs {self.num_slots}"
                )


@dataclass(slots=True)
class SimTrace:
    """Complete record of one simulation run.

    Attributes:
        num_slots: slots simulated.
        nodes: node id -> :class:`NodeState` (receivers only).
        source_states: node id -> :class:`NodeState` for sources (tracks sends).
        transmissions: full transmission log if recorded, else empty.
        dropped: transmissions removed by ``drop_rule`` (send spent, no delivery).
        injected: repair transmissions injected via ``repair_hook`` that were
            actually sent (a subset may still appear in ``dropped``).
        throttled: transmissions cut by ``capacity_hook`` before sending (the
            link had no capacity; distinct from ``dropped``, where the send
            happened and the delivery was lost).
    """

    num_slots: int
    nodes: dict[int, NodeState]
    source_states: dict[int, NodeState]
    transmissions: list[Transmission] = field(default_factory=list)
    dropped: list[Transmission] = field(default_factory=list)
    injected: list[Transmission] = field(default_factory=list)
    throttled: list[Transmission] = field(default_factory=list)

    def arrivals(self, node: int) -> Mapping[int, int]:
        """Packet -> arrival slot for one node."""
        return self.nodes[node].arrivals

    def all_arrivals(self) -> dict[int, dict[int, int]]:
        """Node -> (packet -> arrival slot) for all receivers."""
        return {nid: dict(state.arrivals) for nid, state in self.nodes.items()}

    def state_of(self, node: int) -> NodeState:
        if node in self.nodes:
            return self.nodes[node]
        return self.source_states[node]


class _EngineView:
    """The :class:`~repro.core.protocol.HoldingsView` handed to protocols.

    Holdings reflect packets whose arrival slot is strictly before the current
    slot — a packet received during slot ``t`` is forwardable from ``t + 1``.
    """

    __slots__ = ("_states", "_slot")

    def __init__(self, states: dict[int, NodeState]) -> None:
        self._states = states
        self._slot = 0

    def holds(self, node: int, packet: int) -> bool:
        state = self._states.get(node)
        if state is None:
            return False
        arrival = state.arrivals.get(packet)
        return arrival is not None and arrival < self._slot

    def arrival_slot(self, node: int, packet: int) -> int | None:
        state = self._states.get(node)
        if state is None:
            return None
        return state.arrivals.get(packet)

    def packets_of(self, node: int) -> frozenset[int]:
        state = self._states.get(node)
        if state is None:
            return frozenset()
        slot = self._slot
        return frozenset(p for p, a in state.arrivals.items() if a < slot)


class SlottedEngine:
    """Runs a streaming protocol under the paper's slotted communication model."""

    def __init__(self, protocol: StreamingProtocol, config: SimConfig) -> None:
        self.protocol = protocol
        self.config = config
        overlap = set(protocol.node_ids) & protocol.source_ids
        if overlap:
            raise ReproError(f"node ids {sorted(overlap)} listed as both receiver and source")
        compiled = config.compiled_schedule
        if compiled is not None:
            node_ids = getattr(compiled, "node_ids", None)
            if node_ids is not None and tuple(node_ids) != tuple(protocol.node_ids):
                raise ReproError(
                    "compiled schedule was lowered for a different node set "
                    f"({len(node_ids)} receivers) than this protocol "
                    f"({len(tuple(protocol.node_ids))} receivers)"
                )

    def run(self) -> SimTrace:
        protocol = self.protocol
        config = self.config
        instr = config.instrumentation
        registry = instr.registry if instr is not None else None
        spans = instr.spans if instr is not None else None
        emit = (
            instr.tracer.emit
            if instr is not None and instr.tracer is not None
            else None
        )
        protocol.reset()
        receivers = {nid: NodeState(nid) for nid in protocol.node_ids}
        sources = {nid: NodeState(nid) for nid in protocol.source_ids}
        view = _EngineView(receivers)
        validator = SlotValidator(
            protocol.send_capacity,
            protocol.recv_capacity,
            strict_duplicates=config.strict_duplicates,
        )
        log: list[Transmission] = []
        dropped: list[Transmission] = []
        injected: list[Transmission] = []
        throttled: list[Transmission] = []
        drop_rule = config.drop_rule
        repair_hook = config.repair_hook
        capacity_hook = config.capacity_hook
        # Min-heap of (arrival_slot, seq, Transmission) for latency > 1 links.
        in_flight: list[tuple[int, int, Transmission]] = []
        seq = 0
        source_ids = protocol.source_ids

        def holds(node: int, packet: int) -> bool:
            return view.holds(node, packet)

        if emit is not None:
            emit(ev.RUN_START, 0, num_slots=config.num_slots)
        sent_total = 0
        delivered_new = 0

        compiled = config.compiled_schedule
        pending_repairs: list[Transmission] = []
        for slot in range(config.num_slots):
            view._slot = slot
            if emit is not None:
                emit(ev.SLOT_START, slot)
            with span_scope(spans, "schedule"):
                if compiled is not None:
                    batch = compiled.batch(slot)
                else:
                    batch = list(protocol.transmissions(slot, view))
            if pending_repairs:
                with span_scope(spans, "repair_merge"):
                    merged = self._merge_repairs(slot, batch, pending_repairs, holds)
                injected.extend(merged)
                if emit is not None:
                    for tx in merged:
                        emit(ev.REPAIR_INJECTED, slot, sender=tx.sender,
                             receiver=tx.receiver, packet=tx.packet)
                batch.extend(merged)
                pending_repairs = []
            if config.validate:
                with span_scope(spans, "validate"):
                    batch = validator.validate_slot(
                        slot,
                        batch,
                        holds=holds,
                        source_available=protocol.packet_available_slot,
                        is_source=lambda n: n in source_ids,
                    )
            if capacity_hook is not None:
                with span_scope(spans, "capacity_hook"):
                    cuts = capacity_hook(slot, batch)
                if cuts:
                    cut_list = list(cuts)
                    batch_ids = {id(tx) for tx in batch}
                    for tx in cut_list:
                        if id(tx) not in batch_ids:
                            raise ReproError(
                                "capacity_hook returned a transmission not in "
                                f"this slot's batch: {tx!r} (slot {slot})"
                            )
                    cut_ids = {id(tx) for tx in cut_list}
                    kept: list[Transmission] = []
                    for tx in batch:
                        if id(tx) in cut_ids:
                            throttled.append(tx)
                            if emit is not None:
                                emit(ev.TX_THROTTLED, slot, sender=tx.sender,
                                     receiver=tx.receiver, packet=tx.packet)
                        else:
                            kept.append(tx)
                    batch = kept

            dropped_this_slot: list[Transmission] = []
            with span_scope(spans, "deliver"):
                for tx in batch:
                    sender_state = receivers.get(tx.sender) or sources.get(tx.sender)
                    if sender_state is None:
                        raise ReproError(f"unknown sender node {tx.sender}")
                    sender_state.sent_to.add(tx.receiver)
                    sender_state.packets_sent += 1
                    sent_total += 1
                    if emit is not None:
                        emit(ev.TX_SENT, slot, sender=tx.sender, receiver=tx.receiver,
                             packet=tx.packet, latency=tx.latency)
                    if drop_rule is not None and drop_rule(tx):
                        dropped.append(tx)
                        dropped_this_slot.append(tx)
                        if emit is not None:
                            emit(ev.TX_DROPPED, slot, sender=tx.sender,
                                 receiver=tx.receiver, packet=tx.packet)
                        continue
                    if config.record_transmissions:
                        log.append(tx)
                    seq += 1
                    heapq.heappush(in_flight, (tx.arrival_slot, seq, tx))

                # Deliver everything arriving by the end of this slot.
                arrived_this_slot: list[Transmission] = []
                while in_flight and in_flight[0][0] <= slot:
                    _, _, tx = heapq.heappop(in_flight)
                    receiver_state = receivers.get(tx.receiver)
                    if receiver_state is None:
                        receiver_state = sources.get(tx.receiver)
                        if receiver_state is None:
                            raise ReproError(f"unknown receiver node {tx.receiver}")
                    # First arrival wins; duplicates (if allowed) are ignored.
                    if emit is None:
                        if tx.packet not in receiver_state.arrivals:
                            receiver_state.arrivals[tx.packet] = tx.arrival_slot
                            delivered_new += 1
                    else:
                        new = tx.packet not in receiver_state.arrivals
                        if new:
                            receiver_state.arrivals[tx.packet] = tx.arrival_slot
                            delivered_new += 1
                        emit(ev.TX_DELIVERED, tx.arrival_slot, sender=tx.sender,
                             receiver=tx.receiver, packet=tx.packet, new=new)
                    receiver_state.received_from.add(tx.sender)
                    arrived_this_slot.append(tx)

            if repair_hook is not None:
                with span_scope(spans, "repair_hook"):
                    repairs = repair_hook(slot, arrived_this_slot, dropped_this_slot)
                if repairs:
                    pending_repairs = list(repairs)

        if emit is not None:
            emit(ev.RUN_END, config.num_slots, sent=sent_total, dropped=len(dropped),
                 delivered=delivered_new, injected=len(injected),
                 throttled=len(throttled))
        if registry is not None:
            label = type(protocol).__name__
            registry.counter("engine.runs", protocol=label).inc()
            registry.counter("engine.slots", protocol=label).inc(config.num_slots)
            registry.counter("engine.tx.sent", protocol=label).inc(sent_total)
            registry.counter("engine.tx.dropped", protocol=label).inc(len(dropped))
            registry.counter("engine.tx.delivered", protocol=label).inc(delivered_new)
            registry.counter("engine.repairs.injected", protocol=label).inc(len(injected))
            registry.counter("engine.tx.throttled", protocol=label).inc(len(throttled))
        return SimTrace(
            num_slots=config.num_slots,
            nodes=receivers,
            source_states=sources,
            transmissions=log,
            dropped=dropped,
            injected=injected,
            throttled=throttled,
        )

    def _merge_repairs(
        self,
        slot: int,
        batch: list[Transmission],
        repairs: list[Transmission],
        holds,
    ) -> list[Transmission]:
        """Select the injected repairs that coexist with the scheduled batch.

        Repairs always yield: any injection that would double-deliver a
        ``(receiver, packet)`` pair, exceed a node's send/receive capacity, or
        re-deliver a packet the receiver already holds is skipped.  Unfixed
        gaps persist in the holdings view, so a well-behaved ``repair_hook``
        simply re-detects them and tries again later.
        """
        protocol = self.protocol
        send_used: Counter[int] = Counter()
        recv_used: Counter[int] = Counter()
        scheduled: set[tuple[int, int]] = set()
        for tx in batch:
            send_used[tx.sender] += 1
            recv_used[tx.receiver] += 1
            scheduled.add((tx.receiver, tx.packet))
        merged: list[Transmission] = []
        for tx in repairs:
            if tx.slot != slot:
                raise ReproError(
                    f"repair_hook injected a transmission stamped for slot "
                    f"{tx.slot} into slot {slot}"
                )
            key = (tx.receiver, tx.packet)
            if key in scheduled:
                continue
            if holds(tx.receiver, tx.packet):
                continue
            if send_used[tx.sender] + 1 > protocol.send_capacity(tx.sender):
                continue
            if recv_used[tx.receiver] + 1 > protocol.recv_capacity(tx.receiver):
                continue
            send_used[tx.sender] += 1
            recv_used[tx.receiver] += 1
            scheduled.add(key)
            merged.append(tx)
        return merged


def simulate(
    protocol: StreamingProtocol,
    num_slots: int,
    *,
    validate: bool = True,
    strict_duplicates: bool = True,
    record_transmissions: bool = True,
    drop_rule: DropRule | None = None,
    repair_hook: RepairHook | None = None,
    capacity_hook: CapacityHook | None = None,
    instrumentation: Instrumentation | None = None,
    compiled_schedule: object | None = None,
) -> SimTrace:
    """Convenience wrapper: build an engine, run it, return the trace."""
    config = SimConfig(
        num_slots=num_slots,
        validate=validate,
        strict_duplicates=strict_duplicates,
        record_transmissions=record_transmissions,
        drop_rule=drop_rule,
        repair_hook=repair_hook,
        capacity_hook=capacity_hook,
        instrumentation=instrumentation,
        compiled_schedule=compiled_schedule,
    )
    return SlottedEngine(protocol, config).run()
