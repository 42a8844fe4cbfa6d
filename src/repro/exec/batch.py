"""Vectorized batch replay: one NumPy pass evaluates many sessions.

The fleet runner's schedule cache means almost every session in a large
fleet replays the *same* compiled timetable under a different
``(seed, drop_rate)``.  The scalar kernel (:mod:`repro.exec.replay`) walks
the flat arrays one session at a time in Python; this module re-expresses
the identical semantics as NumPy column operations so one pass scores a
whole batch:

* the schedule is **lowered** once per process into NumPy columns (sender
  and receiver holdings rows, packets, arrival and send slots) and cached
  on the :class:`~repro.exec.compiler.CompiledSchedule`;
* each ``(num_packets, horizon)`` pair gets a cached **measured-prefix
  view**: only the transmissions that carry a packet ``< num_packets``
  before the horizon.  Dropping the rest is exact with no extra invariant,
  because a send of packet ``p`` reads and writes only packet ``p``'s
  holdings column, so unscored packets can never affect scored ones.  The
  view orders its transmissions by send slot and splits a slot into steps
  whose targets are pairwise distinct;
* replay keeps one ``(packets * (rows + 1), B)`` holdings matrix of
  earliest arrival slots (``INF`` = never held) and walks the view step by
  step, applying the scalar kernel's hold check, drop mask, and
  earliest-arrival min-fold to all ``B`` sessions at once.  Per-slot
  processing is exact because a transmission sent at slot ``s`` arrives at
  ``s`` or later while forwarding requires an arrival strictly *before*
  ``s`` — deliveries within a slot can never enable sends in that slot;
* drops come from a counter-based stream: session ``b``'s drop bit for
  flat transmission ``i`` is a pure function of ``(key_b, i)``, with
  ``key_b`` derived from ``seeds[b]`` (see :func:`bernoulli_masks`).  Bits
  do not depend on draw order, so the kernel draws only the view's
  columns, for the whole chunk in one vectorized pass, straight into the
  ``(columns, B)`` layout the replay reads; a session's mask still does
  not depend on the view, the batch, or the worker.  A batch whose rates
  are all zero has no masks: it scores **one row** and broadcasts it to
  every session.  That row is replayed once per view and memoized on it;
* scores are closed-form per node, with no time axis: the loss-tolerant
  startup delay is ``max(0, max_p(arrival_p - p) + 1)`` over the available
  packets (clamped at 0, like
  :func:`~repro.core.metrics.summarize_lossy_playback`).  That start is
  hiccup-free, so available packet ``p`` is held from its arrival ``a_p``
  through slot ``start + p - 1``, and the buffer peak is the most packets
  held at any arrival: ``max_q #{p : a_p <= a_q < start + p}``, 0 when
  nothing arrived.  (Over the sorted arrivals ``a_(i)`` this is
  ``max(0, max_i(i - #{available p <= a_(i) - start}))``.)

Results are slot-for-slot identical to the reference interpreter
(:func:`~repro.exec.replay.replay_arrivals` scored by
:func:`~repro.core.metrics.collect_repair_metrics`) — including the loss
model: a dropped index never delivers, and a transmission whose sender does not hold
its packet at send time is a silent no-op (the paper's zero-slack
permanent-loss behavior).  The identity is property-tested against both the
scalar path and the engine in ``tests/test_exec_properties.py``.

Memory is bounded: :func:`replay_batch` internally splits the batch into
chunks whose working set stays under ``element_budget`` array elements, so
arbitrarily large batches run in bounded kernel memory (the per-session
output columns still scale with the batch, of course).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Union, cast

import numpy as np
import numpy.typing as npt

from repro.core.errors import ReproError
from repro.core.metrics import RepairMetrics
from repro.exec.compiler import CompiledSchedule
from repro.obs.registry import active_registry

__all__ = [
    "BatchMetrics",
    "bernoulli_masks",
    "replay_batch",
    "spawn_seeds",
]

#: A per-session seed: an int in ``[0, 2**64)``, used as the raw key word,
#: or a ``SeedSequence``, whose first 64-bit state word is.
Seed = Union[int, np.random.SeedSequence]

#: "Never arrived" sentinel in the holdings matrix.
_INF = np.int32(np.iinfo(np.int32).max)

#: Default working-set budget per kernel chunk, in array elements
#: (~64 MB of int32).  The chunk batch size is derived from it.
DEFAULT_ELEMENT_BUDGET = 16_000_000

#: SplitMix64: the golden-ratio increment and the finalizer's multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def spawn_seeds(seed: int, n: int) -> tuple[np.random.SeedSequence, ...]:
    """``n`` statistically independent per-session seed sequences.

    Derived via ``np.random.SeedSequence(seed).spawn(n)``.  Child ``i``
    depends only on ``(seed, i)``, and its first 64-bit state word keys its
    drop stream, so session ``i`` of master seed ``s`` always draws the same
    mask — solo, inside any batch, or on any worker.
    """
    if n < 0:
        raise ReproError(f"cannot spawn {n} seeds")
    return tuple(np.random.SeedSequence(seed).spawn(n))


def _mix(z: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """SplitMix64's finalizer, in place.  ``z`` must be an array: wrapping
    uint64 arithmetic is silent on arrays but warns on NumPy scalars."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _keys(seeds: Sequence[Seed]) -> npt.NDArray[np.uint64]:
    """Per-session stream keys: ``mix(raw + G)`` of each seed's raw word."""
    raw = np.array(
        [
            seed.generate_state(1, np.uint64)[0]
            if isinstance(seed, np.random.SeedSequence)
            else seed
            for seed in seeds
        ],
        dtype=np.uint64,
    )
    raw += _GOLDEN
    return _mix(raw)


def bernoulli_masks(
    schedule: CompiledSchedule,
    drop_rates: Sequence[float],
    seeds: Sequence[Seed],
    columns: npt.ArrayLike | None = None,
) -> npt.NDArray[np.bool_] | None:
    """Per-session drop masks over ``columns``, as a ``(B, len(columns))``
    matrix.

    The stream is counter-based: with SplitMix64's finalizer ``mix``,
    ``G = 0x9E3779B97F4A7C15`` and wrapping uint64 arithmetic, session
    ``b`` has key ``mix(raw + G)``, where ``raw`` is ``seeds[b]`` itself
    (an int in ``[0, 2**64)``) or ``seed.generate_state(1, np.uint64)[0]``
    for a ``SeedSequence``.  Flat transmission ``i`` drops iff
    ``mix(key + (i + 1) * G) >> 11 < ceil(rate * 2**53)``: the 53-bit
    uniform ``Generator.random()`` builds, compared with ``< rate``, so
    rate 0 drops nothing and rate 1 drops everything.

    Entry ``[b, j]`` is session ``b``'s bit for transmission
    ``columns[j]`` (default: every transmission, in flat order), so a
    session's mask does not depend on the batch, its order, the columns
    drawn, or the worker: row ``b`` restricted to any columns equals
    ``bernoulli_mask(schedule, drop_rates[b], seeds[b])`` at those columns.
    The matrix is the transpose of a C-ordered ``(len(columns), B)`` array.
    Every seed is validated, whatever the rates; returns ``None`` when every
    rate is zero (loss-free batch, nothing to mask).
    """
    if len(drop_rates) != len(seeds):
        raise ReproError(
            f"got {len(seeds)} seeds but {len(drop_rates)} drop rates"
        )
    for rate in drop_rates:
        if not 0 <= rate <= 1:
            raise ReproError(f"drop rate must be in [0, 1], got {rate}")
    for seed in seeds:
        if type(seed) is int or isinstance(seed, np.integer):
            if 0 <= seed < 2**64:
                continue
        elif isinstance(seed, np.random.SeedSequence):
            continue
        raise ReproError(
            f"seed {seed!r} is not an int in [0, 2**64) or a SeedSequence"
        )
    if not any(rate > 0 for rate in drop_rates):
        return None
    index: npt.NDArray[np.intp]
    if columns is None:
        index = np.arange(schedule.size, dtype=np.intp)
    else:
        index = np.asarray(columns, dtype=np.intp)
        if index.size and (index.min() < 0 or index.max() >= schedule.size):
            raise ReproError(
                f"mask columns must index the schedule's {schedule.size} "
                "transmissions"
            )
    counters = index.astype(np.uint64)
    counters += np.uint64(1)
    counters *= _GOLDEN
    bits = _mix(np.add.outer(counters, _keys(seeds)))
    bits >>= 11
    limits = np.array(
        [math.ceil(rate * 2**53) for rate in drop_rates], dtype=np.uint64
    )
    return (bits < limits).T


# --------------------------------------------------------------------------
# Schedule lowering
# --------------------------------------------------------------------------


#: One kernel step: ``(slot, lo, hi, senders, targets, arrivals)`` — the
#: view's transmissions ``lo:hi``, all sent at ``slot``, with holdings rows
#: of their senders and (pairwise-distinct) receivers and a ``(k, 1)``
#: column of arrival slots.
_Step = tuple[
    int, int, int,
    npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.int32],
]

#: Per-node ``(startup_delays, buffer_peaks, available_counts)`` columns,
#: each ``(B, num_rows)``.
_Scores = tuple[
    npt.NDArray[np.int32], npt.NDArray[np.int32], npt.NDArray[np.int32]
]


@dataclass(slots=True)
class _View:
    """The transmissions a ``(num_packets, horizon)`` replay measures.

    ``columns`` are their flat schedule indices, in step order (the
    drop-mask columns to draw); holdings rows address the
    ``width * (num_rows + 1)`` matrix, ``packet * (num_rows + 1) + row``,
    where row ``num_rows`` is the always-held source row.  ``lossfree``
    memoizes the one-row loss-free scores once a loss-free batch has
    needed them.
    """

    columns: npt.NDArray[np.intp]
    steps: tuple[_Step, ...]
    num_rows: int
    width: int
    lossfree: _Scores | None = None


@dataclass(frozen=True, slots=True)
class _Lowered:
    """A compiled schedule's columns in kernel index space.

    One entry per transmission: send ``slots``, ``packets``, ``arrivals``
    and the holdings rows of sender and receiver (``schedule.node_ids``
    order; source senders map to the extra row ``num_rows``).  ``views``
    caches the measured-prefix views built from these columns.
    """

    starts: npt.NDArray[np.int64]
    slots: npt.NDArray[np.int64]
    snd_row: npt.NDArray[np.int64]
    rcv_row: npt.NDArray[np.int64]
    packets: npt.NDArray[np.int64]
    arrivals: npt.NDArray[np.int32]
    num_rows: int
    num_packets: int
    views: dict[tuple[int, int], _View] = field(default_factory=dict)


def _rows_of(ids: npt.NDArray[np.int64], row_of: dict[int, int]) -> npt.NDArray[np.int64]:
    """Map node ids to holdings rows, one dict lookup per distinct id."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    table = np.array([row_of[nid] for nid in distinct.tolist()], dtype=np.int64)
    return table[inverse.reshape(-1)]


def _lower(schedule: CompiledSchedule) -> _Lowered:
    cached = cast("_Lowered | None", schedule._np_cache)
    if cached is not None:
        return cached
    starts = np.asarray(schedule.starts, dtype=np.int64)
    packets = np.asarray(schedule.packets, dtype=np.int64)
    num_rows = len(schedule.node_ids)
    receiver_row = {nid: row for row, nid in enumerate(schedule.node_ids)}
    sender_row = receiver_row | dict.fromkeys(schedule.source_ids, num_rows)
    lowered = _Lowered(
        starts=starts,
        slots=np.repeat(np.arange(schedule.num_slots, dtype=np.int64), np.diff(starts)),
        snd_row=_rows_of(np.asarray(schedule.senders, dtype=np.int64), sender_row),
        rcv_row=_rows_of(np.asarray(schedule.receivers, dtype=np.int64), receiver_row),
        packets=packets,
        arrivals=np.asarray(schedule.arrivals, dtype=np.int32),
        num_rows=num_rows,
        num_packets=int(packets.max()) + 1 if packets.size else 1,
    )
    schedule._np_cache = lowered
    return lowered


def _view(schedule: CompiledSchedule, num_packets: int, horizon: int) -> _View:
    """The cached measured-prefix view of ``schedule`` (see module doc)."""
    lowered = _lower(schedule)
    view = lowered.views.get((num_packets, horizon))
    if view is not None:
        return view
    end = int(lowered.starts[horizon])
    kept = np.flatnonzero(lowered.packets[:end] < num_packets)
    width = min(num_packets, lowered.num_packets)
    stride = lowered.num_rows + 1
    slots = lowered.slots[kept]
    packets = lowered.packets[kept]
    targets = packets * stride + lowered.rcv_row[kept]
    # The r-th send to one target within a slot goes to step r, so every
    # step's scatter hits distinct targets.  Exact: sends never see their
    # own slot's deliveries, and the earliest-arrival fold commutes.
    slot_target = slots * (width * stride) + targets
    order = np.argsort(slot_target, kind="stable")
    first = np.searchsorted(slot_target[order], slot_target[order])
    rank = np.empty(len(kept), dtype=np.int64)
    rank[order] = np.arange(len(kept)) - first
    order = np.lexsort((rank, slots))
    step = (slots * (int(rank.max(initial=0)) + 1) + rank)[order]
    bounds = np.flatnonzero(np.diff(step, prepend=-1, append=-1)).tolist()
    senders = (packets * stride + lowered.snd_row[kept])[order]
    targets = targets[order]
    arrivals = lowered.arrivals[kept][order, None]
    slots = slots[order]
    view = _View(
        columns=kept[order],
        steps=tuple(
            (int(slots[lo]), lo, hi, senders[lo:hi], targets[lo:hi], arrivals[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ),
        num_rows=lowered.num_rows,
        width=width,
    )
    lowered.views[(num_packets, horizon)] = view
    return view


# --------------------------------------------------------------------------
# Kernel
# --------------------------------------------------------------------------


def _hold_and_deliver(
    view: _View, alive: npt.NDArray[np.bool_] | None
) -> npt.NDArray[np.int32]:
    """Replay the view for every session column of ``alive`` at once.

    ``alive`` is the ``(len(view.columns), B)`` not-dropped matrix, or
    ``None`` for one loss-free session.  Returns the
    ``(width, num_rows, B)`` earliest-arrival array (``_INF`` = never
    arrived).  Per step: hold check against the pre-slot holdings, mask,
    then an earliest-arrival min-fold into the step's distinct targets.
    """
    held = np.full(
        (view.width, view.num_rows + 1, 1 if alive is None else alive.shape[1]),
        _INF,
        dtype=np.int32,
    )
    held[:, view.num_rows] = -1  # a source holds every packet before slot 0
    flat = held.reshape(-1, held.shape[2])
    for slot, lo, hi, senders, targets, arrivals in view.steps:
        sent = flat[senders] < slot
        if alive is not None:
            sent &= alive[lo:hi]
        current = flat[targets]
        np.minimum(current, arrivals, out=current, where=sent)
        flat[targets] = current
    return held[:, : view.num_rows]


def _score(arrived: npt.NDArray[np.int32]) -> _Scores:
    """Per-node playback scores of a ``(width, num_rows, B)`` arrival array.

    Returns ``(startup_delays, buffer_peaks, available_counts)``, each of
    shape ``(B, num_rows)``, matching
    :func:`~repro.core.metrics.summarize_lossy_playback` node for node:
    startup is the earliest hiccup-free start over the *available* packets,
    clamped at 0 (0 when nothing arrived), and the buffer peak is the max
    end-of-slot occupancy at that start.  Packets ``>= width`` never
    arrived, so they cannot occupy the buffer or delay the start.
    """
    width = arrived.shape[0]
    avail = arrived < _INF
    packet = np.arange(width, dtype=np.int32)[:, None, None]
    start = np.where(avail, arrived - packet, -1).max(axis=0) + 1
    # The start is hiccup-free, so packet p sits in the buffer from its
    # arrival a_p through slot start + p - 1, and occupancy peaks at some
    # arrival a_q: count the p with a_p <= a_q < start + p.  A missing
    # packet (arrival _INF) is never counted and never peaks.
    covers = arrived[:, None] <= arrived
    covers &= arrived < (start + packet)[:, None]
    peak = covers.sum(axis=0, dtype=np.int32).max(axis=0)
    return start.T, peak.T, avail.sum(axis=0, dtype=np.int32).T


def _replay(view: _View, masks: npt.NDArray[np.bool_] | None) -> _Scores:
    """Scores of every session row of ``masks``, drawn over ``view.columns``.

    ``None`` (a loss-free batch) replays one row, once per view; the
    caller broadcasts it to every session.  The memoized arrays are shared
    between calls, so they are read-only.
    """
    if masks is not None:
        return _score(_hold_and_deliver(view, ~masks.T))
    if view.lossfree is None:
        scores = _score(_hold_and_deliver(view, None))
        for column in scores:
            column.flags.writeable = False
        view.lossfree = scores
    return view.lossfree


# --------------------------------------------------------------------------
# Public surface
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchMetrics:
    """Per-session metric columns of one :func:`replay_batch` call.

    Session ``i`` of every column scores seed ``seeds[i]`` at rate
    ``drop_rates[i]``; :meth:`metrics` rebuilds the session's scalar
    :class:`~repro.core.metrics.RepairMetrics` exactly.

    Attributes:
        num_sessions / num_nodes / num_packets / num_slots: batch shape —
            sessions scored, receivers per session, measured packet prefix,
            replayed horizon.
        seeds / drop_rates: the batch coordinates, session-aligned.
        residual: ``(node, packet)`` pairs never delivered, per session.
        available: pairs delivered, per session.
        max_delay / avg_delay: worst / mean loss-tolerant startup delay
            over the session's nodes.
        max_buffer / avg_buffer: worst / mean peak buffer occupancy.
        node_delays / node_buffers: per-node ``(B, num_nodes)`` startup
            delay and buffer peak columns (``None`` when the call passed
            ``keep_node_columns=False``); node order follows
            ``schedule.node_ids``.
    """

    num_sessions: int
    num_nodes: int
    num_packets: int
    num_slots: int
    seeds: tuple[Seed, ...]
    drop_rates: tuple[float, ...]
    residual: npt.NDArray[np.int64]
    available: npt.NDArray[np.int64]
    max_delay: npt.NDArray[np.int64]
    avg_delay: npt.NDArray[np.float64]
    max_buffer: npt.NDArray[np.int64]
    avg_buffer: npt.NDArray[np.float64]
    node_delays: npt.NDArray[np.int32] | None = None
    node_buffers: npt.NDArray[np.int32] | None = None

    def metrics(self, i: int) -> RepairMetrics:
        """Session ``i``'s scalar :class:`RepairMetrics` (no baseline)."""
        if not 0 <= i < self.num_sessions:
            raise ReproError(
                f"session index {i} outside batch [0, {self.num_sessions})"
            )
        residual = int(self.residual[i])
        available = int(self.available[i])
        return RepairMetrics(
            num_nodes=self.num_nodes,
            num_packets=self.num_packets,
            num_slots=self.num_slots,
            residual_pairs=residual,
            residual_loss_rate=residual / (self.num_nodes * self.num_packets),
            recovered_pairs=0,
            recovery_latency_mean=0.0,
            recovery_latency_max=0,
            recovery_latencies=(),
            goodput=available / (self.num_nodes * self.num_slots),
            max_effective_delay=int(self.max_delay[i]),
            avg_effective_delay=float(self.avg_delay[i]),
            max_buffer=int(self.max_buffer[i]),
            avg_buffer=float(self.avg_buffer[i]),
        )

    def rows(self) -> list[dict[str, Any]]:
        """Flat sweep rows: ``seed``, ``drop_rate``, the metrics columns."""
        out: list[dict[str, Any]] = []
        for i in range(self.num_sessions):
            row: dict[str, Any] = {
                "seed": self.seeds[i],
                "drop_rate": self.drop_rates[i],
            }
            row.update(self.metrics(i).row())
            out.append(row)
        return out


def replay_batch(
    schedule: CompiledSchedule,
    seeds: Sequence[Seed],
    drop_rates: float | Sequence[float],
    *,
    num_packets: int,
    num_slots: int | None = None,
    keep_node_columns: bool = True,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> BatchMetrics:
    """Score a whole batch of sessions of one compiled schedule in one pass.

    The batch primitive behind ``ExperimentSpec(kind="sweep")`` and the
    fleet runner: session ``i`` replays ``schedule`` under the drop mask of
    ``(seeds[i], drop_rates[i])`` and is scored exactly like the reference
    interpreter — same loss model, same metrics, bit-for-bit.  Bumps ``sweep.batch_sessions`` /
    ``sweep.batched_tx`` (sessions x transmissions up to the horizon) on
    the active registry.

    Args:
        schedule: the compiled timetable every session shares.
        seeds: one stream seed per session (see :data:`Seed`); every
            seed is validated, whatever the rates.
        drop_rates: per-session Bernoulli drop rates, or one scalar rate
            broadcast to the whole batch.
        num_packets: measured stream prefix.
        num_slots: replay horizon (defaults to the compiled horizon).
        keep_node_columns: also return the per-node ``(B, num_nodes)``
            delay/buffer columns (needed to build per-session SLOs; drop
            them for plain sweeps to save memory).
        element_budget: kernel working-set cap in array elements; the batch
            is internally chunked to stay under it.
    """
    horizon = schedule.num_slots if num_slots is None else num_slots
    if not 0 <= horizon <= schedule.num_slots:
        raise ReproError(
            f"replay horizon {horizon} outside compiled range "
            f"[0, {schedule.num_slots}]"
        )
    if horizon < 1:
        raise ReproError(f"num_slots must be positive to score a batch, got {horizon}")
    if num_packets < 1:
        raise ReproError(f"num_packets must be positive, got {num_packets}")
    seeds = tuple(seeds)
    total = len(seeds)
    if total == 0:
        raise ReproError("replay_batch needs at least one session seed")
    if isinstance(drop_rates, (int, float)):
        rates: tuple[float, ...] = (float(drop_rates),) * total
    else:
        rates = tuple(float(rate) for rate in drop_rates)
    if len(rates) != total:
        raise ReproError(f"got {total} seeds but {len(rates)} drop rates")
    for rate in rates:
        if not 0 <= rate <= 1:
            raise ReproError(f"drop rate must be in [0, 1], got {rate}")
    if not schedule.node_ids:
        raise ReproError("schedule has no receiver nodes to score")
    view = _view(schedule, num_packets, horizon)
    rows = view.num_rows
    per_session = max(
        (rows + 1) * view.width,  # holdings matrix
        rows * view.width ** 2,   # pairwise buffer-cover temporaries
        4 * len(view.columns),    # drop draw: two uint64 (4 int32) per column
    )
    if any(rate > 0 for rate in rates):
        chunk = max(1, min(total, element_budget // per_session))
    else:
        chunk = total  # loss-free: one replayed row serves the whole batch

    residual = np.empty(total, dtype=np.int64)
    available = np.empty(total, dtype=np.int64)
    max_delay = np.empty(total, dtype=np.int64)
    avg_delay = np.empty(total, dtype=np.float64)
    max_buffer = np.empty(total, dtype=np.int64)
    avg_buffer = np.empty(total, dtype=np.float64)
    node_delays = (
        np.empty((total, rows), dtype=np.int32) if keep_node_columns else None
    )
    node_buffers = (
        np.empty((total, rows), dtype=np.int32) if keep_node_columns else None
    )
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        masks = bernoulli_masks(
            schedule, rates[lo:hi], seeds[lo:hi], view.columns
        )
        # A loss-free chunk scores one row; the assignments broadcast it.
        delays, peaks, navail = _replay(view, masks)
        residual[lo:hi] = num_packets * rows - navail.sum(axis=1)
        available[lo:hi] = navail.sum(axis=1)
        max_delay[lo:hi] = delays.max(axis=1)
        avg_delay[lo:hi] = delays.mean(axis=1)
        max_buffer[lo:hi] = peaks.max(axis=1)
        avg_buffer[lo:hi] = peaks.mean(axis=1)
        if node_delays is not None and node_buffers is not None:
            node_delays[lo:hi] = delays
            node_buffers[lo:hi] = peaks
    registry = active_registry()
    scheme = schedule.key.scheme if schedule.key is not None else "ad-hoc"
    registry.counter("sweep.batch_sessions", scheme=scheme).inc(total)
    registry.counter("sweep.batched_tx", scheme=scheme).inc(
        total * schedule.starts[horizon]
    )
    return BatchMetrics(
        num_sessions=total,
        num_nodes=rows,
        num_packets=num_packets,
        num_slots=horizon,
        seeds=seeds,
        drop_rates=rates,
        residual=residual,
        available=available,
        max_delay=max_delay,
        avg_delay=avg_delay,
        max_buffer=max_buffer,
        avg_buffer=avg_buffer,
        node_delays=node_delays,
        node_buffers=node_buffers,
    )
