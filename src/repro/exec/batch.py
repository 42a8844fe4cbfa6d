"""Vectorized batch replay: one NumPy pass evaluates many sessions.

The fleet runner's schedule cache means almost every session in a large
fleet replays the *same* compiled timetable under a different
``(seed, drop_rate)``.  The scalar kernel (:mod:`repro.exec.replay`) walks
the flat arrays one session at a time in Python; this module re-expresses
the identical semantics as NumPy column operations so one pass scores a
whole batch:

* the schedule is **lowered** once per process into NumPy columns (sender
  and receiver holdings rows, packets, arrival and send slots, read from
  :meth:`~repro.exec.compiler.CompiledSchedule.columns`) and cached on the
  :class:`~repro.exec.compiler.CompiledSchedule`; a transmission naming an
  unknown node or a negative packet, or arriving before its send slot, is
  a :class:`ReproError`;
* each ``(num_packets, horizon)`` pair gets a cached **measured-prefix
  view**: only the transmissions that carry a packet ``< num_packets``
  before the horizon.  Dropping the rest is exact with no extra invariant,
  because a send of packet ``p`` reads and writes only packet ``p``'s
  holdings column, so unscored packets can never affect scored ones.  The
  view orders its transmissions by send slot and splits a slot into steps
  whose targets are pairwise distinct.  A batch replays **one view**, its
  widest: the largest prefix and the latest horizon of its sessions;
* each session is then **cut** to its own prefix and horizon: a packet
  ``>= num_packets_b`` or an arrival ``>= horizon_b + c`` never arrived,
  where ``c`` is the schedule's constant ``arrival - send slot`` (latency
  - 1).  Exact: packets are independent (above), and as the hold check
  forwards only what arrived before the send slot, sends at or after
  ``horizon_b`` cannot touch the arrivals before ``horizon_b + c``.  A
  schedule without a constant ``c`` takes one horizon per batch;
* replay keeps one ``(packets * (rows + 1), B)`` holdings matrix of
  earliest arrival slots (``INF`` = never held) and walks the view step by
  step, applying the scalar kernel's hold check, drop mask, and
  earliest-arrival min-fold to all ``B`` sessions at once.  Per-slot
  processing is exact because a transmission sent at slot ``s`` arrives at
  ``s`` or later while forwarding requires an arrival strictly *before*
  ``s`` — deliveries within a slot can never enable sends in that slot;
* drops come from a counter-based stream: session ``b``'s drop bit for
  flat transmission ``i`` is a pure function of ``(key_b, i)``, with
  ``key_b`` derived from the int ``seeds[b]`` (see :func:`bernoulli_masks`).
  Bits do not depend on draw order, so the kernel draws only the view's
  columns, for the whole chunk a block of columns at a time, straight into
  the ``(columns, B)`` layout the replay reads; a session's mask still does
  not depend on the view, the batch, or the worker.  A chunk whose rates
  are all zero has no masks: it scores **one row** per distinct cut,
  memoized on the view, and broadcasts it to the cut's sessions;
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
chunks whose working set stays under :data:`DEFAULT_ELEMENT_BUDGET` array
elements, so arbitrarily large batches run in bounded kernel memory (the
per-session output columns still scale with the batch, of course).

A seed is an int in ``[0, 2**64)``.  Each call turns its seeds and drop
rates into one uint64 and one float64 column and range-checks them there,
naming the first bad value in a :class:`ReproError`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, cast

import numpy as np
import numpy.typing as npt

from repro.core.errors import ReproError
from repro.core.metrics import RepairMetrics
from repro.exec.compiler import CompiledSchedule
from repro.obs.registry import active_registry

__all__ = [
    "BatchMetrics",
    "DEFAULT_ELEMENT_BUDGET",
    "bernoulli_masks",
    "replay_batch",
    "score_arrivals",
    "spawn_seeds",
]

#: "Never arrived" sentinel in the holdings matrix.
_INF = np.int32(np.iinfo(np.int32).max)

#: Working-set budget per kernel chunk, in array elements (~64 MB of
#: int32).  The chunk batch size is derived from it.
DEFAULT_ELEMENT_BUDGET = 16_000_000

#: Elements per block of the mask draw's uint64 temporaries and of the
#: scorer's pairwise buffer count: a few MB, however wide the batch.
_BLOCK = 1 << 18

#: SplitMix64: the golden-ratio increment and the finalizer's multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """SplitMix64's finalizer, in place.  ``z`` must be an array: wrapping
    uint64 arithmetic is silent on arrays but warns on NumPy scalars."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _counters(index: npt.NDArray[np.integer]) -> npt.NDArray[np.uint64]:
    """The stream's counter words ``(i + 1) * G``, one per index ``i``."""
    counters = index.astype(np.uint64)
    counters += np.uint64(1)
    counters *= _GOLDEN
    return counters


def _keys(seeds: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """Per-session stream keys: ``mix(seed + G)``."""
    return _mix(seeds + _GOLDEN)


def _seed_column(
    seeds: Sequence[int] | npt.NDArray[np.integer],
) -> npt.NDArray[np.uint64]:
    """``seeds`` as a uint64 column.  A uint64 array passes as it is; other
    values take one type pass (a bool is no seed), then NumPy's own range
    check.  A :class:`ReproError` names the first value that is not an int
    in ``[0, 2**64)``."""
    if isinstance(seeds, np.ndarray):
        if seeds.dtype == np.uint64:
            return seeds
        seeds = seeds.tolist()
    types = set(map(type, seeds))
    if all(kind is int or issubclass(kind, np.integer) for kind in types):
        try:  # Python ints out of range raise; NumPy ints would wrap
            return np.array(
                seeds if types <= {int} else [int(seed) for seed in seeds],
                dtype=np.uint64,
            )
        except OverflowError:
            pass
    bad = next(
        seed for seed in seeds
        if not (type(seed) is int or isinstance(seed, np.integer)) or not 0 <= seed < 2**64
    )
    raise ReproError(f"seed {bad!r} is not an int in [0, 2**64)")


def _rate_column(
    rates: float | Sequence[float] | npt.NDArray[np.floating], total: int
) -> npt.NDArray[np.float64]:
    """``rates``, one or one per session, as a float64 column of ``total``
    entries; a :class:`ReproError` names the first rate outside ``[0, 1]``."""
    column = np.asarray(rates, dtype=np.float64)
    if column.ndim == 0:
        column = np.full(total, column)
    elif len(column) != total:
        raise ReproError(f"got {total} seeds but {len(column)} drop rates")
    inside = (column >= 0) & (column <= 1)  # NaN is outside
    if not inside.all():
        raise ReproError(f"drop rate must be in [0, 1], got {column[inside.argmin()]}")
    return column


def spawn_seeds(master: int, n: int) -> npt.NDArray[np.uint64]:
    """``n`` per-session seeds from one master seed, as a uint64 array.

    Child ``i`` is word ``i`` of the master's SplitMix64 counter stream,
    ``mix(mix(master + G) + (i + 1) * G)`` (the word :func:`bernoulli_masks`
    compares for transmission ``i`` of session ``master``), so it depends
    only on ``(master, i)``: session ``i`` of master seed ``s`` always draws
    the same mask — solo, inside any batch, or on any worker.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ReproError(f"cannot spawn {n!r} seeds")
    words = _counters(np.arange(n))
    words += _keys(_seed_column((master,)))
    return _mix(words)


def bernoulli_masks(
    schedule: CompiledSchedule,
    drop_rates: Sequence[float] | npt.NDArray[np.floating],
    seeds: Sequence[int] | npt.NDArray[np.integer],
    columns: npt.ArrayLike | None = None,
) -> npt.NDArray[np.bool_] | None:
    """Per-session drop masks over ``columns``, as a ``(B, len(columns))``
    matrix.

    The stream is counter-based: with SplitMix64's finalizer ``mix``,
    ``G = 0x9E3779B97F4A7C15`` and wrapping uint64 arithmetic, session
    ``b`` has key ``mix(seeds[b] + G)`` (a seed is an int in
    ``[0, 2**64)``).  Flat transmission ``i`` drops iff
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
    seed_column = _seed_column(seeds)
    rates = _rate_column(drop_rates, len(seed_column))
    if not rates.any():
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
    counters = _counters(index)
    keys = _keys(seed_column)
    limits = np.ceil(rates * 2**53).astype(np.uint64)  # exact: rate * 2**53 <= 2**53
    masks = np.empty((len(counters), len(keys)), dtype=np.bool_)
    step = max(1, _BLOCK // len(keys))  # about _BLOCK bits per block
    for lo in range(0, len(counters), step):
        bits = _mix(np.add.outer(counters[lo:lo + step], keys))
        bits >>= 11
        np.less(bits, limits, out=masks[lo:lo + step])
    return masks.T


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
    where row ``num_rows`` is the always-held source row.  ``offset`` is
    the schedule's constant ``arrival - send slot`` (``None`` if it
    varies); ``lossfree`` memoizes loss-free scores per cut.
    """

    columns: npt.NDArray[np.intp]
    steps: tuple[_Step, ...]
    num_rows: int
    width: int
    offset: int | None
    lossfree: dict[tuple[int, int], _Scores] = field(default_factory=dict)


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
    offset: int | None
    views: dict[tuple[int, int], _View] = field(default_factory=dict)


def _lower(schedule: CompiledSchedule) -> _Lowered:
    cached = cast("_Lowered | None", schedule._np_cache)
    if cached is not None:
        return cached
    c = schedule.columns()
    for what, bad in (("an unknown sender", c.sender_rows < 0),
                      ("an unknown receiver", c.receiver_rows < 0),
                      ("a negative packet", c.packets < 0),
                      ("an arrival before its send slot", c.arrivals < c.slots)):
        if bad.any():
            i = int(np.argmax(bad))
            raise ReproError(
                f"schedule transmission {i} has {what} (slot {c.slots[i]}: "
                f"{c.senders[i]} -> {c.receivers[i]}, packet {c.packets[i]})"
            )
    lags = c.arrivals - c.slots  # not np.unique: its first call imports numpy.ma
    lag = int(lags[0]) if lags.size else 0
    # Every source shares the always-held source row num_rows.
    lowered = _Lowered(
        starts=np.asarray(schedule.starts, dtype=np.int64),
        slots=c.slots,
        snd_row=np.minimum(c.sender_rows, c.num_rows),
        rcv_row=np.minimum(c.receiver_rows, c.num_rows),
        packets=c.packets,
        arrivals=c.arrivals.astype(np.int32),
        num_rows=c.num_rows,
        num_packets=int(c.packets.max()) + 1 if c.packets.size else 1,
        offset=lag if (lags == lag).all() else None,
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
        offset=lowered.offset,
    )
    lowered.views[(num_packets, horizon)] = view
    return view


# --------------------------------------------------------------------------
# Kernel
# --------------------------------------------------------------------------


def _hold_and_deliver(
    view: _View, dropped: npt.NDArray[np.bool_] | None
) -> npt.NDArray[np.int32]:
    """Replay the view for every session column of ``dropped`` at once.

    ``dropped`` is the ``(len(view.columns), B)`` drop-mask matrix, or
    ``None`` for one loss-free session.  Returns the
    ``(width, num_rows, B)`` earliest-arrival array (``_INF`` = never
    arrived).  Per step: hold check against the pre-slot holdings, mask,
    then an earliest-arrival min-fold into the step's distinct targets.
    """
    held = np.full(
        (view.width, view.num_rows + 1, 1 if dropped is None else dropped.shape[1]),
        _INF,
        dtype=np.int32,
    )
    held[:, view.num_rows] = -1  # a source holds every packet before slot 0
    flat = held.reshape(-1, held.shape[2])
    for slot, lo, hi, senders, targets, arrivals in view.steps:
        sent = flat[senders] < slot
        if dropped is not None:
            np.greater(sent, dropped[lo:hi], out=sent)  # sent and not dropped
        current = flat[targets]
        np.minimum(current, arrivals, out=current, where=sent)
        flat[targets] = current
    return held[:, : view.num_rows]


def score_arrivals(arrived: npt.NDArray[np.int32]) -> _Scores:
    """Per-node playback scores of a ``(width, num_rows, B)`` arrival array.

    Returns ``(startup_delays, buffer_peaks, available_counts)``, each of
    shape ``(B, num_rows)``, matching
    :func:`~repro.core.metrics.summarize_lossy_playback` node for node:
    startup is the earliest hiccup-free start over the *available* packets,
    clamped at 0 (0 when nothing arrived), and the buffer peak is the max
    end-of-slot occupancy at that start.  Packets ``>= width`` never
    arrived, so they cannot occupy the buffer or delay the start.  For a
    node holding every packet ``0..width-1`` the start is
    :func:`~repro.core.playback.earliest_safe_start` and the peak is
    :func:`~repro.core.playback.buffer_peak` at that start; the model
    checker (:mod:`repro.check`) scores playback with this function.
    Its temporaries are a few arrays of the input's shape and blocks of
    about ``_BLOCK`` elements.
    """
    width = arrived.shape[0]
    avail = arrived < _INF
    packet = np.arange(width, dtype=np.int32)[:, None, None]
    start = np.where(avail, arrived - packet, -1).max(axis=0) + 1
    # The start is hiccup-free, so packet p sits in the buffer from its
    # arrival a_p through slot start + p - 1, and occupancy peaks at some
    # arrival a_q: count the p with a_p <= a_q < start + p, for a block of
    # q at a time.  A missing packet (arrival _INF) is never counted and
    # never peaks.
    ends = start + packet
    peak = np.zeros_like(start)
    step = max(1, _BLOCK // arrived.size)
    for lo in range(0, width, step):
        at = arrived[lo:lo + step, None]
        counts = ((arrived <= at) & (at < ends)).sum(axis=1, dtype=np.int32)
        np.maximum(peak, counts.max(axis=0), out=peak)
    return start.T, peak.T, avail.sum(axis=0, dtype=np.int32).T


def _cut(
    view: _View, arrived: npt.NDArray[np.int32], packets: npt.ArrayLike, horizons: npt.ArrayLike
) -> None:
    """Cut session ``b`` of :func:`_hold_and_deliver`'s ``arrived``, in place,
    to its prefix ``packets[b]`` and horizon ``horizons[b]`` (module doc)."""
    ends = _INF if view.offset is None else np.add(horizons, view.offset)
    limit = np.where(np.arange(view.width)[:, None] < packets, ends, 0)
    np.copyto(arrived, _INF, where=arrived >= limit[:, None])


def _lossfree(view: _View, keys: list[tuple[int, int]]) -> _Scores:
    """A loss-free chunk's scores at its ``(num_packets, horizon)`` cuts: one
    row per distinct cut, memoized on the view (read-only); a single row is
    left for the caller to broadcast."""
    cuts = set(keys)
    for cut in sorted(cuts - view.lossfree.keys()):
        arrived = _hold_and_deliver(view, None)
        _cut(view, arrived, *cut)
        scores = view.lossfree[cut] = score_arrivals(arrived)
        for column in scores:
            column.flags.writeable = False
    if len(cuts) == 1:
        return view.lossfree[keys[0]]
    rows = zip(*map(view.lossfree.__getitem__, keys))
    delays, peaks, navail = (np.concatenate(column) for column in rows)
    return delays, peaks, navail


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
        num_sessions / num_nodes: sessions scored, receivers per session.
        seeds / drop_rates: the batch coordinates, session-aligned.
        num_packets / num_slots: per-session measured packet prefix and
            replayed horizon.
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
    seeds: tuple[int, ...]
    drop_rates: tuple[float, ...]
    num_packets: npt.NDArray[np.int64]
    num_slots: npt.NDArray[np.int64]
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
        num_packets, num_slots = int(self.num_packets[i]), int(self.num_slots[i])
        return RepairMetrics(
            num_nodes=self.num_nodes,
            num_packets=num_packets,
            num_slots=num_slots,
            residual_pairs=residual,
            residual_loss_rate=residual / (self.num_nodes * num_packets),
            recovered_pairs=0,
            recovery_latency_mean=0.0,
            recovery_latency_max=0,
            recovery_latencies=(),
            goodput=available / (self.num_nodes * num_slots),
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


def _session_column(
    name: str, value: int | Sequence[int], total: int
) -> tuple[npt.NDArray[np.int64], int, int]:
    """``value``, one int or one per session, as an int64 column of
    ``total`` entries, with its least and greatest entry."""
    column = np.asarray(value)
    if column.ndim > 1 or column.dtype.kind not in "iu":
        raise ReproError(f"{name} must be an int or a sequence of ints, got {value!r}")
    if not column.ndim:
        return np.full(total, column, dtype=np.int64), int(column), int(column)
    if len(column) != total:
        raise ReproError(f"got {total} seeds but {len(column)} {name}")
    return column.astype(np.int64), int(column.min()), int(column.max())


def replay_batch(
    schedule: CompiledSchedule,
    seeds: Sequence[int] | npt.NDArray[np.integer],
    drop_rates: float | Sequence[float],
    *,
    num_packets: int | Sequence[int],
    num_slots: int | Sequence[int] | None = None,
    keep_node_columns: bool = True,
) -> BatchMetrics:
    """Score a whole batch of sessions of one compiled schedule in one pass.

    The batch primitive behind ``ExperimentSpec(kind="sweep")`` and the
    fleet runner: session ``i`` replays ``schedule`` under the drop mask of
    ``(seeds[i], drop_rates[i])`` up to its own horizon and packet prefix,
    and is scored exactly like the reference interpreter — same loss
    model, same metrics, bit-for-bit.  Bumps ``sweep.batch_sessions`` /
    ``sweep.batched_tx`` (the sum over sessions of the transmissions before
    each session's horizon) on the active registry.

    Args:
        schedule: the compiled timetable every session shares.
        seeds: one stream seed per session, an int in ``[0, 2**64)``
            (:func:`spawn_seeds` draws them from one master); every seed
            is validated, whatever the rates.
        drop_rates: per-session Bernoulli drop rates, or one scalar rate
            broadcast to the whole batch.
        num_packets: measured stream prefix, one or one per session.
        num_slots: replay horizon, one or one per session (default: the
            compiled horizon; differing ones need a constant offset).
        keep_node_columns: also return the per-node ``(B, num_nodes)``
            delay/buffer columns (needed to build per-session SLOs; drop
            them for plain sweeps to save memory).
    """
    seed_column = _seed_column(seeds)
    total = len(seed_column)
    if total == 0:
        raise ReproError("replay_batch needs at least one session seed")
    (packets, fewest, most), (horizons, first, last) = (
        _session_column(name, value, total) for name, value in (
            ("num_packets", num_packets),
            ("num_slots", schedule.num_slots if num_slots is None else num_slots),
        )
    )
    if first < 0 or last > schedule.num_slots:
        raise ReproError(
            f"replay horizon {first if first < 0 else last} outside compiled "
            f"range [0, {schedule.num_slots}]"
        )
    if first < 1:
        raise ReproError(f"num_slots must be positive to score a batch, got {first}")
    if fewest < 1:
        raise ReproError(f"num_packets must be positive, got {fewest}")
    rates = _rate_column(drop_rates, total)
    if not schedule.node_ids:
        raise ReproError("schedule has no receiver nodes to score")
    view = _view(schedule, most, last)
    if view.offset is None and first < last:
        raise ReproError("schedule has differing arrival offsets, so one horizon per batch")
    rows = view.num_rows
    holdings = (rows + 1) * view.width
    per_session = max(  # int32-sized elements; the rest runs in _BLOCK-element blocks
        holdings + len(view.columns) // 4,  # holdings and boolean drop masks
        4 * holdings,  # holdings and the scorer's temporaries of their shape
    )
    if rates.any():
        chunk = max(1, min(total, DEFAULT_ELEMENT_BUDGET // per_session))
    else:
        chunk = total  # loss-free: one replayed row per distinct cut

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
        masks = bernoulli_masks(schedule, rates[lo:hi], seed_column[lo:hi], view.columns)
        if masks is None:  # a single loss-free row is broadcast by the assignments
            cuts = (
                [(most, last)] if fewest == most and first == last
                else list(zip(packets[lo:hi].tolist(), horizons[lo:hi].tolist()))
            )
            delays, peaks, navail = _lossfree(view, cuts)
        else:  # scoring's temporaries are the larger part: free the masks first
            arrived = _hold_and_deliver(view, masks.T)
            del masks
            if fewest < view.width or first < last:
                _cut(view, arrived, packets[lo:hi], horizons[lo:hi])
            delays, peaks, navail = score_arrivals(arrived)
        available[lo:hi] = navail.sum(axis=1)
        max_delay[lo:hi] = delays.max(axis=1)
        avg_delay[lo:hi] = delays.sum(axis=1) / rows  # exact int sums: == mean
        max_buffer[lo:hi] = peaks.max(axis=1)
        avg_buffer[lo:hi] = peaks.sum(axis=1) / rows
        if node_delays is not None and node_buffers is not None:
            node_delays[lo:hi] = delays
            node_buffers[lo:hi] = peaks
    registry = active_registry()
    scheme = schedule.key.scheme if schedule.key is not None else "ad-hoc"
    registry.counter("sweep.batch_sessions", scheme=scheme).inc(total)
    registry.counter("sweep.batched_tx", scheme=scheme).inc(
        total * schedule.starts[last] if first == last
        else int(_lower(schedule).starts[horizons].sum())
    )
    return BatchMetrics(
        num_sessions=total,
        num_nodes=rows,
        seeds=tuple(seed_column.tolist()),
        drop_rates=tuple(rates.tolist()),
        num_packets=packets,
        num_slots=horizons,
        residual=packets * rows - available,
        available=available,
        max_delay=max_delay,
        avg_delay=avg_delay,
        max_buffer=max_buffer,
        avg_buffer=avg_buffer,
        node_delays=node_delays,
        node_buffers=node_buffers,
    )
