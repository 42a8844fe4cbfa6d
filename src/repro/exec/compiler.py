"""Schedule compiler: lower a scheme's timetable into flat arrays.

For a fixed ``(scheme, construction, N, d, D, T_c)`` the paper's schedules are
deterministic, yet every experiment re-derives them — walking tree positions
or stepping the hypercube exchange — once per run even though a sweep replays
the identical schedule across dozens of seeds and drop rates.  The compiler
lowers each schedule **once** into contiguous ``array('i')`` columns (sender,
receiver, packet, arrival slot, latency, tree) with a per-slot offset index.
:func:`compile_schedule` takes the columns from the protocol's closed-form
``timetable`` (the §2.2.3 round robin over a slot × position grid, the §3
exchange as an int-bitset replay); :func:`compile_protocol` runs the engine
(:func:`~repro.core.engine.simulate`) on any protocol and packs its
transmission log, and is the oracle the closed forms are tested against.
Both pack their columns through :meth:`CompiledSchedule.from_columns`.  The
result is a small, picklable :class:`CompiledSchedule` that

* replays through the engine's fast path slot-for-slot identically to the
  object-based scheduling (``SimConfig.compiled_schedule``),
* replays without the engine at all for sweep workers
  (:mod:`repro.exec.replay`, and :mod:`repro.exec.batch` from the NumPy
  :class:`ScheduleColumns` view), and
* crosses process boundaries once per worker instead of once per task.

:func:`compile_schedule` adds the in-process content-addressed cache from
:mod:`repro.exec.cache` in front of the lowering; the cache key's horizon
comes from each scheme's closed-form ``slots_for_packets``, so a hit builds
no protocol.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, cast

import numpy as np
import numpy.typing as npt

from repro.core.engine import simulate
from repro.core.errors import ReproError, ScheduleError, check_ints
from repro.core.packet import Transmission
from repro.exec.cache import ScheduleCache, ScheduleKey, default_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines import ChainProtocol, SingleTreeProtocol
    from repro.core.protocol import StreamingProtocol
    from repro.hypercube import GroupedHypercubeProtocol, HypercubeCascadeProtocol
    from repro.trees import MultiTreeProtocol

    #: The protocols :func:`build_protocol` returns; each has ``timetable``.
    CompilableProtocol = (
        MultiTreeProtocol
        | HypercubeCascadeProtocol
        | GroupedHypercubeProtocol
        | ChainProtocol
        | SingleTreeProtocol
    )

__all__ = [
    "COMPILABLE_SCHEMES",
    "CompiledSchedule",
    "ScheduleColumns",
    "compile_protocol",
    "compile_schedule",
    "build_protocol",
    "schedule_key",
]

#: Schemes with a deterministic loss-free schedule the compiler can lower.
#: (``gossip`` is randomized; its schedule is not a function of the key.)
COMPILABLE_SCHEMES = (
    "multi-tree",
    "hypercube",
    "grouped-hypercube",
    "chain",
    "single-tree",
)

Column = npt.NDArray[np.int64]


@dataclass(frozen=True, slots=True)
class ScheduleColumns:
    """A compiled schedule's transmissions as int64 columns, in flat order.

    ``sender_rows`` / ``receiver_rows`` map each id to its row: ``i`` for
    ``node_ids[i]``, ``num_rows + j`` for ``source_ids[j]``, ``-1`` for any
    other id.
    """

    slots: Column
    senders: Column
    receivers: Column
    packets: Column
    arrivals: Column
    sender_rows: Column
    receiver_rows: Column
    num_rows: int


class CompiledSchedule:
    """A protocol's full transmission timetable as flat per-slot arrays.

    Attributes:
        key: the :class:`~repro.exec.cache.ScheduleKey` identity (None for
            ad-hoc :func:`compile_protocol` lowerings).
        num_slots: compiled horizon.
        node_ids: receiver ids, in protocol order.
        source_ids: origin node ids.
        starts: ``array('i')`` of length ``num_slots + 1``; transmissions of
            slot ``s`` occupy flat indices ``starts[s]:starts[s+1]``.
        senders / receivers / packets / arrivals / latencies / trees: parallel
            ``array('i')`` columns (``trees`` uses ``-1`` for "no tree").
    """

    __slots__ = (
        "key", "num_slots", "node_ids", "source_ids",
        "starts", "senders", "receivers", "packets",
        "arrivals", "latencies", "trees", "_batches", "_np_cache",
    )

    def __init__(
        self,
        *,
        key: ScheduleKey | None,
        num_slots: int,
        node_ids: tuple[int, ...],
        source_ids: tuple[int, ...],
        starts: array,
        senders: array,
        receivers: array,
        packets: array,
        arrivals: array,
        latencies: array,
        trees: array,
    ) -> None:
        self.key = key
        self.num_slots = num_slots
        self.node_ids = node_ids
        self.source_ids = source_ids
        self.starts = starts
        self.senders = senders
        self.receivers = receivers
        self.packets = packets
        self.arrivals = arrivals
        self.latencies = latencies
        self.trees = trees
        self._batches: list[list[Transmission]] | None = None
        # Lowered NumPy columns for the batch kernel (repro.exec.batch);
        # built lazily once per process, never pickled.
        self._np_cache: Any = None

    @classmethod
    def from_columns(
        cls,
        key: ScheduleKey | None,
        num_slots: int,
        node_ids: tuple[int, ...],
        source_ids: tuple[int, ...],
        columns: tuple[npt.ArrayLike, ...],
    ) -> CompiledSchedule:
        """Pack ``(slots, senders, receivers, packets, latencies, trees)``
        columns, sorted by send slot, into a schedule (the shape of a
        protocol's ``timetable``); arrival = slot + latency - 1."""
        slots, senders, receivers, packets, latencies, trees = (
            np.asarray(column, dtype=np.int64) for column in columns
        )
        starts = np.zeros(num_slots + 1, dtype=np.int64)
        np.cumsum(np.bincount(slots, minlength=num_slots), out=starts[1:])
        return cls(
            key=key, num_slots=num_slots, node_ids=node_ids, source_ids=source_ids,
            starts=_column(starts), senders=_column(senders),
            receivers=_column(receivers), packets=_column(packets),
            arrivals=_column(slots + latencies - 1), latencies=_column(latencies),
            trees=_column(trees),
        )

    @classmethod
    def from_log(
        cls,
        log: Sequence[Transmission],
        key: ScheduleKey | None,
        num_slots: int,
        node_ids: tuple[int, ...],
        source_ids: tuple[int, ...],
    ) -> CompiledSchedule:
        """:meth:`from_columns` of a transmission log, stable-sorted by slot."""
        columns = [
            np.fromiter(map(attrgetter(name), log), np.int64, len(log))
            for name in ("slot", "sender", "receiver", "packet", "latency")
        ]
        columns.append(np.fromiter(
            (-1 if tx.tree is None else tx.tree for tx in log), np.int64, len(log)
        ))
        order = np.argsort(columns[0], kind="stable")
        return cls.from_columns(
            key, num_slots, node_ids, source_ids, tuple(c[order] for c in columns)
        )

    def columns(self) -> ScheduleColumns:
        """The transmissions as int64 NumPy columns (:class:`ScheduleColumns`)."""
        senders = np.asarray(self.senders, dtype=np.int64)
        receivers = np.asarray(self.receivers, dtype=np.int64)
        known = np.array((*self.node_ids, *self.source_ids), dtype=np.int64)
        # Stable, so an id listed twice takes its first (receiver) row.
        order = np.argsort(known, kind="stable")
        ordered = known[order]

        def rows_of(ids: Column) -> Column:
            if not known.size:
                return np.full(ids.shape, -1, dtype=np.int64)
            at = np.minimum(np.searchsorted(ordered, ids), known.size - 1)
            return np.where(ordered[at] == ids, order[at], -1)

        return ScheduleColumns(
            slots=np.repeat(
                np.arange(self.num_slots, dtype=np.int64),
                np.diff(np.asarray(self.starts, dtype=np.int64)),
            ),
            senders=senders,
            receivers=receivers,
            packets=np.asarray(self.packets, dtype=np.int64),
            arrivals=np.asarray(self.arrivals, dtype=np.int64),
            sender_rows=rows_of(senders),
            receiver_rows=rows_of(receivers),
            num_rows=len(self.node_ids),
        )

    # ----------------------------------------------------------------- basics
    @property
    def size(self) -> int:
        """Total transmissions across the horizon."""
        return len(self.senders)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledSchedule):
            return NotImplemented
        return (
            self.key == other.key
            and self.num_slots == other.num_slots
            and self.node_ids == other.node_ids
            and self.source_ids == other.source_ids
            and self.starts == other.starts
            and self.senders == other.senders
            and self.receivers == other.receivers
            and self.packets == other.packets
            and self.arrivals == other.arrivals
            and self.latencies == other.latencies
            and self.trees == other.trees
        )

    def __getstate__(self) -> dict[str, Any]:
        # The materialized Transmission batches and the lowered NumPy columns
        # are per-process caches; never pickle them (workers rebuild lazily).
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_batches", "_np_cache")
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._batches = None
        self._np_cache = None

    def __repr__(self) -> str:
        return (
            f"CompiledSchedule(key={self.key!r}, num_slots={self.num_slots}, "
            f"transmissions={self.size})"
        )

    # ------------------------------------------------------------------ replay
    def _materialize(self) -> list[list[Transmission]]:
        batches: list[list[Transmission]] = []
        starts = self.starts
        for slot in range(self.num_slots):
            lo, hi = starts[slot], starts[slot + 1]
            batches.append(
                [
                    Transmission(
                        slot=slot,
                        sender=self.senders[i],
                        receiver=self.receivers[i],
                        packet=self.packets[i],
                        latency=self.latencies[i],
                        tree=self.trees[i] if self.trees[i] >= 0 else None,
                    )
                    for i in range(lo, hi)
                ]
            )
        return batches

    def batch(self, slot: int) -> list[Transmission]:
        """Fresh list of the transmissions initiated during ``slot``.

        Materialized :class:`Transmission` objects are built once per process
        and shared; the returned list is a copy the engine may extend.
        """
        if not 0 <= slot < self.num_slots:
            raise ReproError(
                f"slot {slot} outside compiled horizon [0, {self.num_slots})"
            )
        if self._batches is None:
            self._batches = self._materialize()
        return list(self._batches[slot])


def compile_protocol(
    protocol: StreamingProtocol, num_slots: int, *, key: ScheduleKey | None = None
) -> CompiledSchedule:
    """Lower ``protocol``'s first ``num_slots`` slots into a :class:`CompiledSchedule`.

    Runs the engine (:func:`~repro.core.engine.simulate`, loss-free, with
    validation off) and packs its transmission log, so the timetable is
    exactly what the engine executes: first arrival wins, a slot-``t``
    arrival is forwardable from ``t + 1``, link latencies are honored, and
    state-driven protocols (the hypercube exchange) are stepped as in a
    live run.
    """
    if num_slots < 0:
        raise ReproError(f"num_slots must be non-negative, got {num_slots}")
    trace = simulate(protocol, num_slots, validate=False)
    return CompiledSchedule.from_log(
        trace.transmissions, key, num_slots,
        tuple(protocol.node_ids), tuple(sorted(protocol.source_ids)),
    )


def _column(values: npt.ArrayLike) -> array:
    column = array("i")
    column.frombytes(np.ascontiguousarray(values, dtype=np.intc).tobytes())
    return column


def _lower_timetable(
    protocol: CompilableProtocol, num_slots: int, key: ScheduleKey
) -> CompiledSchedule:
    """The :class:`CompiledSchedule` of ``protocol.timetable(num_slots)``:
    equal to :func:`compile_protocol`'s, without stepping the protocol."""
    return CompiledSchedule.from_columns(
        key, num_slots, tuple(protocol.node_ids),
        tuple(sorted(protocol.source_ids)), protocol.timetable(num_slots),
    )


def build_protocol(
    scheme: str,
    num_nodes: int,
    degree: int = 3,
    *,
    construction: str = "structured",
    mode: str = "prerecorded",
    latency: int = 1,
) -> CompilableProtocol:
    """Instantiate the protocol object a :class:`ScheduleKey` describes."""
    if scheme == "multi-tree":
        from repro.trees import MultiTreeProtocol

        return MultiTreeProtocol(
            num_nodes, degree, construction=construction, mode=mode, latency=latency
        )
    if scheme == "hypercube":
        from repro.hypercube import HypercubeCascadeProtocol

        return HypercubeCascadeProtocol(num_nodes)
    if scheme == "grouped-hypercube":
        from repro.hypercube import GroupedHypercubeProtocol

        return GroupedHypercubeProtocol(num_nodes, degree)
    if scheme == "chain":
        from repro.baselines import ChainProtocol

        return ChainProtocol(num_nodes)
    if scheme == "single-tree":
        from repro.baselines import SingleTreeProtocol

        return SingleTreeProtocol(num_nodes, degree)
    raise ReproError(
        f"scheme {scheme!r} is not compilable; choose from {COMPILABLE_SCHEMES}"
    )


def _normalized_key(
    scheme: str,
    num_nodes: int,
    degree: int,
    num_slots: int,
    construction: str,
    mode: str,
    latency: int,
) -> ScheduleKey:
    if scheme not in COMPILABLE_SCHEMES:
        raise ReproError(
            f"scheme {scheme!r} is not compilable; choose from {COMPILABLE_SCHEMES}"
        )
    if scheme != "multi-tree":
        # These schemes have one construction/mode and ignore latency; pin
        # the key fields so equivalent requests share a cache entry.
        construction = "cascade" if "hypercube" in scheme else scheme
        mode = "-"
        latency = 1
    if scheme in ("hypercube", "chain"):
        degree = 1  # their schedules ignore d: one entry for every degree
    return ScheduleKey(
        scheme=scheme,
        construction=construction,
        num_nodes=num_nodes,
        degree=degree,
        num_slots=num_slots,
        mode=mode,
        latency=latency,
    )


def _horizon(
    scheme: str,
    num_nodes: int,
    degree: int,
    num_packets: int,
    construction: str,
    mode: str,
    latency: int,
) -> int:
    """``build_protocol(...).slots_for_packets(num_packets)`` without building
    the protocol: each scheme's horizon formula over its structural size
    (tree height, cascade plan, tree depth), derived by arithmetic.  Raises
    what :func:`build_protocol` raises, in the same order."""
    if scheme == "multi-tree":
        from repro.trees.forest import MultiTreeForest
        from repro.trees.schedule import ScheduleParams, multi_tree_horizon

        height = MultiTreeForest.height_of(num_nodes, degree, construction)
        params = ScheduleParams(mode=mode, latency=latency)
        return multi_tree_horizon(height, degree, num_packets, params)
    if scheme in ("hypercube", "grouped-hypercube"):
        from repro.hypercube.cascade import cascade_horizon, cascade_plan
        from repro.hypercube.protocol import lane_sizes

        sizes = {num_nodes} if scheme == "hypercube" else set(lane_sizes(num_nodes, degree))
        return max(cascade_horizon(cascade_plan(size), num_packets) for size in sizes)
    if scheme in ("chain", "single-tree"):
        from repro.baselines.single_tree import check_tree, single_tree_depth, tree_horizon

        if scheme == "chain":
            check_tree(num_nodes, 1)
            return tree_horizon(num_nodes, num_packets)
        check_tree(num_nodes, degree)
        return tree_horizon(single_tree_depth(num_nodes, degree), num_packets)
    raise ReproError(
        f"scheme {scheme!r} is not compilable; choose from {COMPILABLE_SCHEMES}"
    )


def _resolve(
    scheme: str,
    num_nodes: int,
    degree: int,
    num_slots: int | None,
    num_packets: int | None,
    construction: str,
    mode: str,
    latency: int,
) -> ScheduleKey:
    """Validate a request and derive its key; builds no protocol."""
    if (num_slots is None) == (num_packets is None):
        raise ReproError("pass exactly one of num_slots / num_packets")
    check_ints(
        "compile_schedule", num_nodes=num_nodes, degree=degree,
        num_slots=num_slots, num_packets=num_packets, latency=latency,
    )
    if latency < 1:
        raise ReproError(f"compile_schedule.latency must be >= 1, got {latency}")
    if num_slots is None:
        if num_packets is None:  # unreachable: guarded by the check above
            raise ReproError("pass exactly one of num_slots / num_packets")
        if num_packets < 0:
            raise ReproError(
                f"compile_schedule.num_packets must be non-negative, got {num_packets}"
            )
        num_slots = _horizon(
            scheme, num_nodes, degree, num_packets, construction, mode, latency
        )
    elif num_slots < 0:
        raise ReproError(
            f"compile_schedule.num_slots must be non-negative, got {num_slots}"
        )
    return _normalized_key(
        scheme, num_nodes, degree, num_slots, construction, mode, latency
    )


def schedule_key(
    scheme: str,
    num_nodes: int,
    degree: int = 3,
    *,
    num_slots: int | None = None,
    num_packets: int | None = None,
    construction: str = "structured",
    mode: str = "prerecorded",
    latency: int = 1,
) -> ScheduleKey:
    """The cache key :func:`compile_schedule` files these arguments under,
    derived without compiling or building the protocol (a ``num_packets``
    horizon comes from the scheme's closed-form ``slots_for_packets``)."""
    return _resolve(
        scheme, num_nodes, degree, num_slots, num_packets,
        construction, mode, latency,
    )


def compile_schedule(
    scheme: str,
    num_nodes: int,
    degree: int = 3,
    *,
    num_slots: int | None = None,
    num_packets: int | None = None,
    construction: str = "structured",
    mode: str = "prerecorded",
    latency: int = 1,
    cache: ScheduleCache | None = None,
    provenance: dict | None = None,
    verify: bool = False,
) -> CompiledSchedule:
    """Compile (or fetch from cache) the schedule for one configuration.

    Exactly one of ``num_slots`` / ``num_packets`` must be given;
    ``num_packets`` derives the horizon from the scheme's
    ``slots_for_packets`` bound, computed in closed form.  A bool or
    non-int argument, a negative horizon or a latency below 1 raises
    :class:`~repro.core.errors.ReproError` before anything is built.
    ``provenance``, when passed, receives the cache outcome
    (``memory``/``miss``) and the content token.

    Without ``verify`` a cache hit builds no protocol.  A miss builds
    exactly one and lowers its closed-form ``timetable``, which equals
    :func:`compile_protocol`'s stepped lowering of the same protocol.

    ``verify=True`` certifies whatever the call returns, hit or miss, with
    :func:`repro.check.check_schedule`: a failing miss raises
    :class:`~repro.core.errors.ScheduleError` before it may enter the
    cache, and a failing hit (stored by an unverified compile or a
    :meth:`~repro.exec.cache.ScheduleCache.put`) is dropped from the
    cache, then raises.
    """
    key = _resolve(
        scheme, num_nodes, degree, num_slots, num_packets,
        construction, mode, latency,
    )
    cache = cache if cache is not None else default_cache()

    def _certify(schedule: CompiledSchedule, built: CompilableProtocol | None) -> None:
        # Import lazily: repro.check depends on this module.
        from repro.check.schedule import check_schedule

        report = check_schedule(schedule, protocol=built, num_packets=num_packets)
        if not report.ok:
            findings = "\n  ".join(str(v) for v in report.violations[:10])
            raise ScheduleError(
                f"compiled schedule failed static verification — "
                f"{report.summary()}\n  {findings}"
            )

    def _build() -> CompiledSchedule:
        built = build_protocol(
            scheme, num_nodes, degree,
            construction=construction, mode=mode, latency=latency,
        )
        schedule = _lower_timetable(built, key.num_slots, key)
        if verify:
            _certify(schedule, built)
        return schedule

    outcome: dict[str, Any] = provenance if provenance is not None else {}
    schedule = cast(CompiledSchedule, cache.get_or_compile(key, _build, outcome))
    if verify and outcome["cache"] != "miss":
        try:
            _certify(schedule, None)
        except ScheduleError:
            cache.invalidate(key)
            raise
    return schedule
