"""Static model checking of compiled schedules (``repro check``).

:func:`check_schedule` certifies a :class:`~repro.exec.compiler.CompiledSchedule`
against the paper's communication model and theorem bounds **without running
the engine**: every invariant of :mod:`repro.check.invariants` is evaluated
over one precomputed fact table, and the findings come back as structured
:class:`~repro.check.invariants.Violation` records inside a
:class:`CheckReport`.

Four entry points:

* :func:`check_schedule` — check an in-memory compiled schedule;
* :func:`check_trace` — check a finished engine trace post hoc (``repro
  verify``): its transmission log is lowered into a schedule and run
  through the structural invariants, plus the trace-only ``arrivals`` rule;
* :func:`check_config` — compile (through the content-addressed cache) and
  check one ``(scheme, N, d, P)`` configuration;
* :func:`smoke_grid` — sweep :data:`~repro.exec.compiler.COMPILABLE_SCHEMES`
  over an ``N x d`` grid, the CI gate behind ``repro check --grid``.

Every violation is counted on the active metrics registry as
``check.violations{rule=...}``, so instrumented runs surface checker
findings through the normal observability path.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.core.errors import ReproError
from repro.core.packet import Transmission
from repro.core.protocol import HoldingsView, StreamingProtocol
from repro.exec.cache import ScheduleCache
from repro.exec.compiler import (
    COMPILABLE_SCHEMES,
    CompiledSchedule,
    build_protocol,
    compile_protocol,
    compile_schedule,
)
from repro.check.invariants import (
    ScheduleFacts,
    Violation,
    check_arrivals,
    check_buffer_bound,
    check_causality,
    check_coverage,
    check_delay_bound,
    check_duplicate_delivery,
    check_playability,
    check_recv_capacity,
    check_send_capacity,
    check_well_formed,
)
from repro.obs.registry import active_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import SimTrace

__all__ = [
    "DEFAULT_GRID_NODES",
    "DEFAULT_GRID_DEGREES",
    "CheckReport",
    "check_schedule",
    "check_trace",
    "check_config",
    "smoke_grid",
]

#: The CI smoke grid (``repro check --grid`` defaults).
DEFAULT_GRID_NODES: tuple[int, ...] = (15, 127, 1023)
DEFAULT_GRID_DEGREES: tuple[int, ...] = (2, 3)

Invariant = Callable[[ScheduleFacts], Iterator[Violation]]

#: The per-slot communication-model rules a trace log is held to too.
_MODEL_INVARIANTS: tuple[Invariant, ...] = (
    check_well_formed,
    check_send_capacity,
    check_recv_capacity,
    check_causality,
)

#: Evaluation order of the schedule invariants (structural first, then global).
_INVARIANTS: tuple[Invariant, ...] = (
    *_MODEL_INVARIANTS,
    check_duplicate_delivery,
    check_coverage,
    check_playability,
    check_delay_bound,
    check_buffer_bound,
)


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Outcome of one static schedule check.

    Attributes:
        description: human-readable identity of the checked schedule.
        num_slots / num_transmissions / num_nodes: schedule dimensions.
        num_packets: measured stream prefix ``P`` the global rules used.
        violations: retained findings, at most ``max_per_rule`` per rule in
            rule evaluation order (``counts`` holds the untruncated totals).
        counts: total findings per rule id, including truncated ones.
        num_invariants: how many invariants were evaluated.
    """

    description: str
    num_slots: int
    num_transmissions: int
    num_nodes: int
    num_packets: int
    violations: tuple[Violation, ...]
    counts: dict[str, int] = field(default_factory=dict)
    num_invariants: int = len(_INVARIANTS)

    @property
    def ok(self) -> bool:
        return not self.counts

    @property
    def num_violations(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> str:
        """One line: ``OK`` or the per-rule violation totals."""
        head = (
            f"{self.description}: {self.num_transmissions} transmissions, "
            f"{self.num_slots} slots, P={self.num_packets}"
        )
        if self.ok:
            return f"{head} — OK ({self.num_invariants} invariants hold)"
        parts = ", ".join(f"{rule}={n}" for rule, n in sorted(self.counts.items()))
        return f"{head} — {self.num_violations} violations ({parts})"

    def to_dict(self) -> dict[str, object]:
        return {
            "description": self.description,
            "num_slots": self.num_slots,
            "num_transmissions": self.num_transmissions,
            "num_nodes": self.num_nodes,
            "num_packets": self.num_packets,
            "ok": self.ok,
            "counts": dict(self.counts),
            "violations": [v.to_dict() for v in self.violations],
        }


def _derive_num_packets(protocol: StreamingProtocol, num_slots: int) -> int:
    """Largest prefix ``P`` with ``slots_for_packets(P) <= num_slots``.

    ``slots_for_packets`` is monotone in ``P``; exponential probe then binary
    search keeps this O(log P) protocol calls.
    """
    if num_slots < 1 or protocol.slots_for_packets(1) > num_slots:
        return 0
    hi = 1
    while protocol.slots_for_packets(hi * 2) <= num_slots:
        hi *= 2
    lo = hi  # slots_for_packets(lo) fits; search (lo, 2*lo)
    hi = hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if protocol.slots_for_packets(mid) <= num_slots:
            lo = mid
        else:
            hi = mid
    return lo


def check_schedule(
    schedule: CompiledSchedule,
    *,
    protocol: StreamingProtocol | None = None,
    num_packets: int | None = None,
    max_per_rule: int = 25,
) -> CheckReport:
    """Statically verify ``schedule`` against every invariant.

    Args:
        schedule: the compiled schedule to certify.
        protocol: the protocol supplying capacities and packet availability.
            Defaults to rebuilding it from ``schedule.key``; ad-hoc schedules
            (``compile_protocol`` without a key) must pass one explicitly.
        num_packets: measured stream prefix for the coverage/playback rules.
            Defaults to the largest prefix the compiled horizon guarantees
            (the inverse of ``slots_for_packets``).
        max_per_rule: findings retained per rule (totals are always exact).
    """
    if protocol is None:
        key = schedule.key
        if key is None:
            raise ReproError(
                "schedule has no key; pass the protocol it was compiled from"
            )
        protocol = build_protocol(
            key.scheme, key.num_nodes, key.degree,
            construction=key.construction if key.scheme == "multi-tree" else "structured",
            mode=key.mode if key.scheme == "multi-tree" else "prerecorded",
            latency=key.latency,
        )
    if num_packets is None:
        num_packets = _derive_num_packets(protocol, schedule.num_slots)
    elif num_packets < 0:
        raise ReproError(f"num_packets must be non-negative, got {num_packets}")

    key = schedule.key
    description = (
        f"{key.scheme} N={key.num_nodes} d={key.degree}"
        if key is not None
        else protocol.describe()
    )
    return _evaluate(
        description, ScheduleFacts(schedule, protocol, num_packets),
        _INVARIANTS, max_per_rule,
    )


class _LoggedProtocol(StreamingProtocol):
    """A finished trace's transmission log, replayed as a protocol."""

    def __init__(
        self,
        trace: SimTrace,
        send_capacity: Callable[[int], int],
        recv_capacity: Callable[[int], int],
    ) -> None:
        self._trace = trace
        self._send_capacity = send_capacity
        self._recv_capacity = recv_capacity
        self._by_slot: dict[int, list[Transmission]] = {}
        for tx in trace.transmissions:
            self._by_slot.setdefault(tx.slot, []).append(tx)

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._trace.nodes)

    @property
    def source_ids(self) -> frozenset[int]:
        return frozenset(self._trace.source_states)

    def transmissions(self, slot: int, view: HoldingsView) -> Iterable[Transmission]:
        return self._by_slot.get(slot, ())

    def send_capacity(self, node: int) -> int:
        return self._send_capacity(node)

    def recv_capacity(self, node: int) -> int:
        return self._recv_capacity(node)


def check_trace(
    trace: SimTrace,
    *,
    send_capacity: Callable[[int], int],
    recv_capacity: Callable[[int], int],
    max_per_rule: int = 25,
) -> CheckReport:
    """Verify a finished trace's transmission log against the §2 model.

    The log is lowered into a schedule by :func:`compile_protocol` (the
    engine's own holdings semantics) and held to the well-formed,
    send-capacity, recv-capacity and causality invariants, with the
    trace's source states as the sources.  The trace-only ``arrivals``
    rule then requires each receiver's recorded arrivals to be exactly the
    log's first in-horizon deliveries.  ``duplicate-delivery`` is not
    checked: runs with ``strict_duplicates=False`` deliver duplicates
    legitimately.  A logged delivery to a node the trace does not know
    raises :class:`ReproError`.

    Args:
        trace: the engine's :class:`~repro.core.engine.SimTrace` or one
            rebuilt by :func:`repro.reporting.export.trace_from_dict`.
        send_capacity / recv_capacity: per-node capacities of the model.
        max_per_rule: findings retained per rule (totals are always exact).
    """
    protocol = _LoggedProtocol(trace, send_capacity, recv_capacity)
    # Cover every logged slot, so no transmission escapes the replay.
    last_slot = max((tx.slot for tx in trace.transmissions), default=-1)
    schedule = compile_protocol(protocol, max(trace.num_slots, last_slot + 1))
    facts = ScheduleFacts(schedule, protocol, max(schedule.packets, default=-1) + 1)
    recorded = {node: state.arrivals for node, state in trace.nodes.items()}
    return _evaluate(
        f"trace N={len(trace.nodes)}", facts,
        (*_MODEL_INVARIANTS,
         partial(check_arrivals, recorded=recorded, horizon=trace.num_slots)),
        max_per_rule,
    )


def _evaluate(
    description: str,
    facts: ScheduleFacts,
    invariants: Sequence[Invariant],
    max_per_rule: int,
) -> CheckReport:
    """Run ``invariants`` over ``facts``: exact counts, truncated findings.

    Every finding is also counted on the active registry as
    ``check.violations{rule=...}``.
    """
    if max_per_rule < 1:
        raise ReproError(f"max_per_rule must be >= 1, got {max_per_rule}")
    kept: list[Violation] = []
    counts: Counter[str] = Counter()
    for invariant in invariants:
        for violation in invariant(facts):
            counts[violation.rule] += 1
            if counts[violation.rule] <= max_per_rule:
                kept.append(violation)
    registry = active_registry()
    for rule, n in counts.items():
        registry.counter("check.violations", rule=rule).inc(n)
    schedule = facts.schedule
    return CheckReport(
        description=description,
        num_slots=schedule.num_slots,
        num_transmissions=schedule.size,
        num_nodes=schedule.num_nodes,
        num_packets=facts.num_packets,
        violations=tuple(kept),
        counts=dict(counts),
        num_invariants=len(invariants),
    )


def check_config(
    scheme: str,
    num_nodes: int,
    degree: int = 3,
    *,
    num_packets: int = 16,
    construction: str = "structured",
    mode: str = "prerecorded",
    latency: int = 1,
    cache: ScheduleCache | None = None,
    max_per_rule: int = 25,
) -> CheckReport:
    """Compile (through the cache) and check one configuration."""
    schedule = compile_schedule(
        scheme, num_nodes, degree,
        num_packets=num_packets, construction=construction,
        mode=mode, latency=latency, cache=cache,
    )
    return check_schedule(
        schedule, num_packets=num_packets, max_per_rule=max_per_rule
    )


def smoke_grid(
    *,
    schemes: Sequence[str] = COMPILABLE_SCHEMES,
    nodes: Sequence[int] = DEFAULT_GRID_NODES,
    degrees: Sequence[int] = DEFAULT_GRID_DEGREES,
    num_packets: int = 16,
    cache: ScheduleCache | None = None,
) -> list[CheckReport]:
    """Check every scheme over the ``nodes x degrees`` grid.

    Degree-insensitive schemes (hypercube, chain) are checked once per
    population — their schedules ignore ``d``, so repeating the check would
    only restate the same certificate.
    """
    reports: list[CheckReport] = []
    for scheme in schemes:
        degree_axis: Sequence[int] = degrees
        if scheme in ("hypercube", "chain"):
            degree_axis = degrees[:1]
        for n in nodes:
            for d in degree_axis:
                reports.append(
                    check_config(
                        scheme, n, d, num_packets=num_packets, cache=cache
                    )
                )
    return reports
