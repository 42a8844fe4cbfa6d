"""Per-session and fleet-level SLOs: what the users of the fleet experience.

The paper scores a single run by worst/average playback delay and buffer
peak; a service tracks the same quantities as *distributions over sessions*
plus the smoothness metrics the throughput-smoothness literature argues users
actually feel (rebuffer/skip behavior), and the admission metrics the
capacity literature adds (reject rate, queue wait).  One scorer and one fold
compute them, one kernel unit at a time:

* :func:`score_batch_sessions` turns a batched kernel result
  (:func:`~repro.exec.replay_batch` with ``keep_node_columns=True``) into
  :class:`SessionColumns` — NumPy columns of startup delay (queue wait
  included), rebuffer ratio, per-node delay/buffer percentiles and goodput,
  plus the per-node matrices that pool *exactly* across sessions;
* :class:`FleetAggregator` folds the admission decision table
  (:meth:`~FleetAggregator.add_decisions`, one ``np.bincount`` over the
  status column) and scored units (:meth:`~FleetAggregator.add_sessions`,
  one ``np.bincount`` per column) into exact tables: ``value -> count``
  for the pooled populations, which
  :func:`~repro.obs.quantiles.pooled_percentile` reads (see
  ``docs/TELEMETRY.md``), and integer numerator sums per denominator for
  the two mean ratios.  Every fold is order-free, so units fold in any
  order and fleet percentiles never require materializing per-session
  results;
* :class:`FleetSLOReport` is the fleet report (p50/p95/p99 over the pooled
  per-node populations, reject rate, schedule-cache amortization) and
  round-trips through ``reporting/export.py``.  Its ``sessions`` are a
  :class:`SessionSLOTable`: NumPy columns, whose :class:`SessionSLO` rows
  are built only when a caller indexes or iterates them.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.core.errors import ReproError
from repro.exec.batch import BatchMetrics
from repro.obs.quantiles import pooled_percentile
from repro.service.admission import ADMITTED, DEGRADED, REJECTED, STATUSES, DecisionTable
from repro.service.spec import ColumnTable

__all__ = [
    "pooled_percentile",
    "SessionColumns",
    "SessionSLO",
    "SessionSLOTable",
    "FleetSLOReport",
    "FleetAggregator",
    "score_batch_sessions",
]


@dataclass(frozen=True, slots=True)
class SessionSLO:
    """What one session's viewers experienced.

    Attributes:
        session_id: fleet session index.
        label: the session kind's display label.
        status: admission status (``admitted`` / ``degraded``).
        wait_slots: admission queue wait (part of startup delay).
        startup_delay: worst per-node playback delay plus the queue wait.
        rebuffer_ratio: share of measured ``(node, packet)`` pairs that
            missed playback (skipped or stalled) — the smoothness SLO.
        delay_p50 / delay_p95 / delay_p99: per-node playback-delay
            percentiles inside the session.
        buffer_p50 / buffer_p99: per-node peak-buffer percentiles.
        goodput: available pairs per node per slot.
        num_nodes / num_packets: session population and measured prefix.
        delay_counts / buffer_counts: compact ``(value, count)`` histograms
            of the per-node delay/buffer populations (for exact fleet-level
            pooling).
        qoe: for ABR session kinds, the playback session's
            :class:`~repro.abr.qoe.QoEMetrics` as a dict (``None`` for
            non-ABR sessions).
    """

    session_id: int
    label: str
    status: str
    wait_slots: int
    startup_delay: int
    rebuffer_ratio: float
    delay_p50: int
    delay_p95: int
    delay_p99: int
    buffer_p50: int
    buffer_p99: int
    goodput: float
    num_nodes: int
    num_packets: int
    delay_counts: tuple[tuple[int, int], ...]
    buffer_counts: tuple[tuple[int, int], ...]
    qoe: dict | None = None

    def row(self) -> dict:
        """Flat dict for table/JSON rendering (drops the histograms)."""
        return _flat_row(*(getattr(self, name) for name in _ROW_FIELDS))


#: The :class:`SessionSLO` fields :meth:`SessionSLO.row` reads, and its keys.
_ROW_FIELDS = (
    "session_id", "label", "status", "wait_slots", "startup_delay", "rebuffer_ratio",
    "delay_p50", "delay_p99", "buffer_p99", "goodput", "qoe",
)
_ROW_KEYS = ("session", "label", "status", "wait", "startup", "rebuffer", *_ROW_FIELDS[6:10])


def _flat_row(*values: Any) -> dict:
    """:meth:`SessionSLO.row` of one session's :data:`_ROW_FIELDS` values."""
    out = dict(zip(_ROW_KEYS, values))  # every value but the QoE dict
    out.update(rebuffer=round(out["rebuffer"], 5), goodput=round(out["goodput"], 4))
    if values[-1] is not None:
        out["qoe_tier"] = values[-1]["tier"]
    return out


_SLO_FIELDS = tuple(f.name for f in fields(SessionSLO))
_SCALARS = _SLO_FIELDS[3:14]  # wait_slots .. num_packets
_DTYPES = {"rebuffer_ratio": np.float64, "goodput": np.float64}
_STATUS_CODES = {status: code for code, status in enumerate(STATUSES)}


def _histograms(pairs: np.ndarray, span: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """Each row's ``(value, count)`` tuple: the pairs its span cuts."""
    if not len(span):
        return []
    lo, hi = int(span[:, 0].min()), int(span[:, 1].max())
    flat = list(zip(*pairs[lo:hi].T.tolist()))
    return [tuple(flat[start - lo:stop - lo]) for start, stop in span.tolist()]


class SessionSLOTable(ColumnTable):
    """Retained session SLOs as NumPy columns, one per :class:`SessionSLO`
    field: int64 (the two ratios float64), ``label`` / ``status`` as codes
    into ``labels`` / :data:`~repro.service.admission.STATUSES`, ``qoe`` an
    object column, and each histogram a row's ``[start, stop)`` span
    (``delay_span``; a loss-free unit's rows share one) of flat ``(value,
    count)`` pairs (``delay_pairs``).  Rows are :class:`SessionSLO` objects
    built only when indexed or iterated; :meth:`rows`, :meth:`to_dicts`
    and ``repr`` read the columns, and ``==`` compares row contents.
    """

    __slots__ = (
        "labels", "session_id", "label", "status", *_SCALARS,
        "delay_span", "buffer_span", "qoe", "delay_pairs", "buffer_pairs",
    )
    _columns = __slots__[1:-2]

    def __init__(self, labels: Iterable[str], *columns: npt.ArrayLike) -> None:
        self.labels = tuple(labels)
        for name, column in zip(self.__slots__[1:], columns, strict=True):
            array = np.asarray(column, object if name == "qoe" else _DTYPES.get(name, np.int64))
            paired = name.endswith(("_span", "_pairs"))
            setattr(self, name, array.reshape(-1, 2) if paired else array)

    @classmethod
    def from_rows(cls, rows: Sequence[SessionSLO]) -> SessionSLOTable:
        """The table of ``rows``, in order (each row gets its own spans)."""
        values = list(zip(*([getattr(row, name) for name in _SLO_FIELDS] for row in rows)))
        ids, labels, statuses, *scalars, delays, buffers, qoe = values or [()] * len(_SLO_FIELDS)
        codes = {label: code for code, label in enumerate(dict.fromkeys(labels))}
        lengths = [np.array([len(h) for h in kind], dtype=np.int64) for kind in (delays, buffers)]
        spans = [np.stack((np.cumsum(n) - n, np.cumsum(n)), axis=1) for n in lengths]
        pairs = [[pair for h in kind for pair in h] for kind in (delays, buffers)]
        statuses = [_STATUS_CODES[status] for status in statuses]
        return cls(codes, ids, [codes[x] for x in labels], statuses, *scalars, *spans, qoe, *pairs)

    def _names(self, name: str) -> list[Any]:
        """Column ``name`` as Python values, codes decoded."""
        values, names = getattr(self, name).tolist(), {"label": self.labels, "status": STATUSES}
        return list(map(names[name].__getitem__, values)) if name in names else values

    def _fields(self) -> list[list[Any]]:
        """One list per :class:`SessionSLO` field, in field order."""
        return [
            *map(self._names, _SLO_FIELDS[:-3]),
            _histograms(self.delay_pairs, self.delay_span),
            _histograms(self.buffer_pairs, self.buffer_span),
            self._names("qoe"),
        ]

    def __iter__(self) -> Iterator[SessionSLO]:
        return map(SessionSLO, *self._fields())

    def rows(self) -> list[dict]:
        """:meth:`SessionSLO.row` of every row, read off the columns."""
        return list(map(_flat_row, *map(self._names, _ROW_FIELDS)))

    def to_dicts(self) -> list[dict]:
        """``dataclasses.asdict`` of every row, read off the columns."""
        values = self._fields()
        values[-1] = [None if qoe is None else dict(qoe) for qoe in values[-1]]
        return [dict(zip(_SLO_FIELDS, row)) for row in zip(*values)]

    def __eq__(self, other: object) -> bool:
        # Row contents, whatever the label codes and the span layout.
        if not isinstance(other, SessionSLOTable):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        # Every column in full, so a digest of the repr covers every value.
        columns = (f"{name}={getattr(self, name).tolist()!r}" for name in self.__slots__[1:])
        return f"{type(self).__name__}(labels={self.labels!r}, {', '.join(columns)})"


@dataclass(frozen=True, slots=True)
class SessionColumns:
    """One scored kernel unit: row ``i`` of every column is session ``i``.

    Columns mirror the :class:`SessionSLO` fields of the same names;
    ``node_delays`` / ``node_buffers`` are the kernel's ``(B, num_nodes)``
    columns, not copied, and ``num_slots`` / ``residual`` / ``available``
    are the kernel's horizon and undelivered / delivered pair counts, the
    integer terms of the two ratios.  ``loss_free``: every drop rate is 0
    and every session has the same prefix and horizon, so every row is the
    kernel's one broadcast row and only row 0 is scored and pooled.
    ``qoe``: per-row ABR QoE dicts, or ``None`` without ABR rows.
    """

    session_ids: tuple[int, ...]
    labels: tuple[str, ...]
    statuses: tuple[str, ...]
    wait_slots: np.ndarray
    startup_delay: np.ndarray
    rebuffer_ratio: np.ndarray
    goodput: np.ndarray
    delay_p50: np.ndarray
    delay_p95: np.ndarray
    delay_p99: np.ndarray
    buffer_p50: np.ndarray
    buffer_p99: np.ndarray
    node_delays: np.ndarray
    node_buffers: np.ndarray
    num_packets: np.ndarray
    num_slots: np.ndarray
    residual: np.ndarray
    available: np.ndarray
    loss_free: bool
    qoe: tuple[dict | None, ...] | None = None

    def __len__(self) -> int:
        return len(self.session_ids)


def score_batch_sessions(
    batch: BatchMetrics,
    *,
    session_ids: Sequence[int],
    labels: Sequence[str],
    wait_slots: Sequence[int] | None = None,
    statuses: Sequence[str] | None = None,
) -> SessionColumns:
    """Score every session of a batched kernel result in one column pass.

    Session ``i``'s SLO is computed from row ``i`` of the batch's
    ``(B, num_nodes)`` per-node delay/buffer columns, which are
    slot-identical to :func:`~repro.core.metrics.summarize_lossy_playback`
    over that session's replayed arrival traces: the startup delay is the
    worst node's playback delay plus ``wait_slots[i]`` (the admission queue
    wait, charged to startup only), the rebuffer ratio is the missed share
    of the session's ``num_nodes * num_packets`` measured pairs, and
    goodput is the available pairs per node per slot of its horizon.
    Every field is a whole-column NumPy reduction; a loss-free batch with
    one prefix and horizon sorts its one broadcast row only.

    Args:
        batch: a :func:`~repro.exec.replay_batch` result run with
            ``keep_node_columns=True``.
        session_ids / labels: one per batch session.
        wait_slots: per-session admission queue waits (default 0).
        statuses: per-session admission statuses (default ``admitted``).
    """
    if batch.node_delays is None or batch.node_buffers is None:
        raise ReproError(
            "score_batch_sessions needs a batch run with keep_node_columns=True"
        )
    total = batch.num_sessions
    if not len(session_ids) == len(labels) == total:
        raise ReproError(
            f"batch has {total} sessions but got {len(session_ids)} ids "
            f"and {len(labels)} labels"
        )
    waits = np.asarray((0,) * total if wait_slots is None else wait_slots, dtype=np.int64)
    kinds = tuple(statuses) if statuses is not None else ("admitted",) * total
    if len(waits) != total or len(kinds) != total:
        raise ReproError("wait_slots/statuses must align with the batch")
    num_nodes = batch.num_nodes
    loss_free = not any(batch.drop_rates) and (
        len(set(batch.num_packets.tolist())) == len(set(batch.num_slots.tolist())) == 1
    )
    rows = 1 if loss_free else total
    sorted_delays = np.sort(batch.node_delays[:rows], axis=1)
    sorted_buffers = np.sort(batch.node_buffers[:rows], axis=1)

    def percentile(sorted_rows: np.ndarray, q: float) -> np.ndarray:
        # pooled_percentile's nearest rank over a population of num_nodes;
        # a loss-free unit's one row stands for every session.
        rank = max(1, -(-int(q * num_nodes) // 100)) - 1
        column = sorted_rows[:, rank].astype(np.int64)
        return column if rows == total else column.repeat(total)

    return SessionColumns(
        session_ids=tuple(session_ids),
        labels=tuple(labels),
        statuses=kinds,
        wait_slots=waits,
        startup_delay=batch.max_delay + waits,
        rebuffer_ratio=batch.residual / (num_nodes * batch.num_packets),
        goodput=batch.available / (num_nodes * batch.num_slots),
        delay_p50=percentile(sorted_delays, 50),
        delay_p95=percentile(sorted_delays, 95),
        delay_p99=percentile(sorted_delays, 99),
        buffer_p50=percentile(sorted_buffers, 50),
        buffer_p99=percentile(sorted_buffers, 99),
        node_delays=batch.node_delays,
        node_buffers=batch.node_buffers,
        num_packets=batch.num_packets,
        num_slots=batch.num_slots,
        residual=batch.residual,
        available=batch.available,
        loss_free=loss_free,
    )


@dataclass(frozen=True, slots=True)
class FleetSLOReport:
    """The fleet-level SLO report — the service's scorecard.

    Percentile fields pool the per-node populations of every admitted
    session exactly (via the sessions' compact histograms), so a 1000-session
    fleet's ``delay_p99`` is the true 99th percentile over all viewers, not
    an average of per-session percentiles.

    Attributes:
        num_sessions / admitted / degraded / queued / rejected: admission
            tallies.  ``queued`` counts the *admitted* sessions that waited
            (``wait_slots > 0``).  A queued session that timed out counts
            as ``rejected`` only, and one the queue drain admits back at its
            arrival slot (``wait_slots == 0``) as ``admitted`` only, so
            ``fleet.queue.entered`` is at least ``queued`` plus the
            ``queue_timeout`` rejects.
        reject_rate: rejected over offered sessions.
        startup_p50 / startup_p95 / startup_p99 / startup_max: session
            startup delay distribution (queue wait included).
        rebuffer_mean / rebuffer_max: smoothness SLO over sessions.
        delay_p50 / delay_p95 / delay_p99: pooled per-node playback delay.
        buffer_p50 / buffer_p99: pooled per-node peak buffer occupancy.
        goodput_mean: mean session goodput.
        cache_hits / cache_misses / cache_hit_rate: schedule-compile
            amortization across the fleet.
        sessions: every executed session's SLO as a
            :class:`SessionSLOTable` sorted by session id (empty under
            ``aggregation="sketch"``).
        qoe_tiers: ``(tier, count)`` tallies over the ABR sessions in the
            fleet (empty when no session kind carries an ``abr_profile``).
    """

    num_sessions: int
    admitted: int
    degraded: int
    queued: int
    rejected: int
    reject_rate: float
    startup_p50: int
    startup_p95: int
    startup_p99: int
    startup_max: int
    rebuffer_mean: float
    rebuffer_max: float
    delay_p50: int
    delay_p95: int
    delay_p99: int
    buffer_p50: int
    buffer_p99: int
    goodput_mean: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    sessions: SessionSLOTable
    qoe_tiers: tuple[tuple[str, int], ...] = ()

    def row(self) -> dict:
        """Flat fleet summary (drops the per-session detail)."""
        return {
            "sessions": self.num_sessions,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "reject_rate": round(self.reject_rate, 4),
            "startup_p50": self.startup_p50,
            "startup_p99": self.startup_p99,
            "rebuffer": round(self.rebuffer_mean, 5),
            "delay_p50": self.delay_p50,
            "delay_p95": self.delay_p95,
            "delay_p99": self.delay_p99,
            "buffer_p99": self.buffer_p99,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            **{f"qoe_{tier}": count for tier, count in self.qoe_tiers},
        }

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        payload = {name: getattr(self, name) for name in _REPORT_FIELDS}
        payload["sessions"] = self.sessions.to_dicts()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetSLOReport":
        """Rebuild a report from :meth:`to_dict` output (JSON round-trip); a
        malformed payload raises :class:`ReproError` naming the field and row."""
        payload = dict(payload)
        _check_keys(payload, _REPORT_FIELDS, "fleet report", "qoe_tiers")
        rows = payload.pop("sessions")
        if not isinstance(rows, (list, tuple)):
            raise ReproError(f"fleet report: 'sessions' must be a list, got {type(rows).__name__}")
        try:
            sessions = SessionSLOTable.from_rows([_session_from_dict(*r) for r in enumerate(rows)])
        except (TypeError, ValueError) as exc:
            raise ReproError(f"fleet report sessions: {exc}") from exc
        qoe_tiers = tuple(
            (str(tier), int(count)) for tier, count in payload.pop("qoe_tiers", ())
        )
        return cls(sessions=sessions, qoe_tiers=qoe_tiers, **payload)


_REPORT_FIELDS = tuple(f.name for f in fields(FleetSLOReport))


def _check_keys(payload: dict, names: Sequence[str], what: str, optional: str) -> None:
    """Raise :class:`ReproError` naming the first missing or unknown key."""
    for name in names:
        if name not in payload and name != optional:
            raise ReproError(f"{what}: missing field {name!r}")
    for key in payload:
        if key not in names:
            raise ReproError(f"{what}: unknown field {key!r}")


def _session_from_dict(index: int, row: Any) -> SessionSLO:
    """One :meth:`SessionSLOTable.to_dicts` row as a :class:`SessionSLO`."""
    what = f"fleet report session row {index}"
    if not isinstance(row, dict):
        raise ReproError(f"{what} must be an object, got {type(row).__name__}")
    _check_keys(row, _SLO_FIELDS, what, "qoe")
    if row["status"] not in _STATUS_CODES:
        raise ReproError(f"{what}: unknown status {row['status']!r}")
    histograms: dict[str, tuple] = {}
    for name in ("delay_counts", "buffer_counts"):
        pairs = row[name]
        if not isinstance(pairs, (list, tuple)) or any(
            not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in pairs
        ):
            raise ReproError(f"{what}: field {name!r} must be a list of [value, count] pairs")
        histograms[name] = tuple(map(tuple, pairs))
    return SessionSLO(**{**row, **histograms})


def _row_counts(matrix: np.ndarray) -> np.ndarray:
    """Each row's value counts in a non-negative int matrix: one ``bincount``."""
    rows, width = matrix.shape[0], int(matrix.max()) + 1
    offsets = np.arange(rows, dtype=np.int64)[:, None] * width
    return np.bincount((matrix + offsets).ravel(), minlength=rows * width).reshape(rows, width)


def _exact_mean(sums: Counter[int], count: int) -> float:
    """``sum(numerator / denominator) / count`` over a ``denominator ->
    numerator sum`` table, correctly rounded: one int/int division over the
    least common multiple of the denominators."""
    lcm = math.lcm(*sums)
    return sum(total * (lcm // d) for d, total in sums.items()) / (lcm * count)


class FleetAggregator:
    """Streaming fleet-SLO aggregation with bounded memory.

    Feed the admission decision table (:meth:`add_decisions`) and scored
    units (:meth:`add_sessions`) as they arrive — e.g. from the executor's
    ``on_result`` streaming callback — then :meth:`report` at any point.
    The pooled startup/delay/buffer populations are exact ``value -> count``
    tables: their values are slot and packet counts bounded by the schedule
    horizon and the queue-wait bound, so memory grows with the distinct
    values (a few dozen per fleet), never with the session count.  The
    rebuffer and goodput means are ``denominator -> numerator sum`` tables
    (nodes times prefix or horizon -> undelivered or delivered pairs), so
    :meth:`report` computes them exactly.  Every table is a sum: the report
    depends neither on how sessions are split into units nor on the order
    the units arrive in.

    Args:
        keep_sessions: retain every session's SLO columns for the report's
            :class:`SessionSLOTable`: each unit's small columns and its
            per-row histograms, not its ``(B, N)`` node matrices.  Set
            False at fleet scale — the whole point of streaming
            aggregation is not materializing per-session results.
    """

    __slots__ = (
        "keep_sessions",
        "_startup", "_delay", "_buffer",
        "_admitted", "_degraded", "_rejected", "_queued", "_decisions",
        "_rebuffer_sums", "_rebuffer_max", "_goodput_sums", "_slos",
        "_tiers", "_labels", "_kept",
    )

    def __init__(self, *, keep_sessions: bool = True) -> None:
        self.keep_sessions = keep_sessions
        self._startup: Counter[int] = Counter()
        self._delay: Counter[int] = Counter()
        self._buffer: Counter[int] = Counter()
        self._admitted = 0
        self._degraded = 0
        self._rejected = 0
        self._queued = 0
        self._decisions = 0
        self._rebuffer_sums: Counter[int] = Counter()
        self._rebuffer_max = 0.0
        self._goodput_sums: Counter[int] = Counter()
        self._slos = 0
        self._tiers: Counter[str] = Counter()
        self._labels: dict[str, int] = {}
        # Per kept unit: its size, node count, QoE dicts, per-row delay and
        # buffer histograms (values, counts, row lengths) and its columns.
        self._kept: list[tuple[Any, ...]] = []

    def add_decisions(self, decisions: DecisionTable) -> None:
        """Tally a table of admission decisions: one ``np.bincount`` over
        the status column, plus the admitted sessions that waited."""
        counts = np.bincount(decisions.status, minlength=len(STATUSES)).tolist()
        self._decisions += len(decisions)
        self._admitted += counts[ADMITTED]
        self._degraded += counts[DEGRADED]
        self._rejected += counts[REJECTED]
        self._queued += int(np.count_nonzero(
            (decisions.status != REJECTED) & (decisions.wait_slots > 0)
        ))

    def add_sessions(self, columns: SessionColumns) -> None:
        """Fold one scored unit: one ``np.bincount`` per population (row 0
        times the unit size if loss-free) and per mean's numerator column;
        with ``keep_sessions``, keep its columns and per-row histograms."""
        if not isinstance(columns, SessionColumns):
            raise ReproError(f"add_sessions takes SessionColumns, got {type(columns).__name__}")
        total = len(columns)
        rows = 1 if columns.loss_free else total
        keep = self.keep_sessions
        if keep and not _STATUS_CODES.keys() >= set(columns.statuses):
            raise ReproError(f"unknown session status in {sorted(set(columns.statuses))}")
        histograms: list[tuple[Any, ...]] = []
        for table, values, times in (
            (self._startup, columns.startup_delay, 1),
            (self._delay, columns.node_delays[:rows], total // rows),
            (self._buffer, columns.node_buffers[:rows], total // rows),
        ):
            if keep and values.ndim == 2 and rows > 1:
                per_row = _row_counts(values)
                at, cells = per_row.nonzero()
                histograms.append((cells, per_row[at, cells], np.bincount(at, minlength=rows)))
                counts = per_row.sum(axis=0)
            else:
                counts = np.bincount(values.ravel())
            present = counts.nonzero()[0]
            tally = counts[present]
            if keep and values.ndim == 2 and rows == 1:
                histograms.append((present, tally, [len(present)]))
            table.update(dict(zip(present.tolist(), (tally * times).tolist())))
        num_nodes = columns.node_delays.shape[1]
        for sums, denominators, numerators in (
            (self._rebuffer_sums, columns.num_packets, columns.residual),
            (self._goodput_sums, columns.num_slots, columns.available),
        ):
            # Float weights add whole numbers exactly below 2**53.
            totals = np.bincount(denominators, weights=numerators)
            present = totals.nonzero()[0]
            sums.update({
                value * num_nodes: int(total)
                for value, total in zip(present.tolist(), totals[present].tolist())
            })
        self._slos += total
        self._rebuffer_max = max(self._rebuffer_max, float(columns.rebuffer_ratio.max()))
        if columns.qoe is not None:
            self._tiers.update(qoe["tier"] for qoe in columns.qoe if qoe is not None)
        if keep:
            for label in dict.fromkeys(columns.labels):
                self._labels.setdefault(label, len(self._labels))
            self._kept.append((total, num_nodes, columns.qoe, histograms, (
                np.asarray(columns.session_ids, dtype=np.int64),
                np.fromiter(map(self._labels.__getitem__, columns.labels), np.int64, total),
                np.fromiter(map(_STATUS_CODES.__getitem__, columns.statuses), np.int64, total),
                *(getattr(columns, name) for name in _SCALARS if name != "num_nodes"),
            )))

    def startup_counts(self) -> Counter[int]:
        """A copy of the pooled ``startup delay -> sessions`` table so far."""
        return Counter(self._startup)

    def report(
        self, *, cache_hits: int = 0, cache_misses: int = 0
    ) -> FleetSLOReport:
        """Materialize the fleet report from everything folded so far."""
        if self._decisions == 0:
            raise ReproError("fleet produced no admission decisions")
        if self._slos == 0:
            raise ReproError("every session was rejected; no SLOs to aggregate")
        lookups = cache_hits + cache_misses
        return FleetSLOReport(
            num_sessions=self._decisions,
            admitted=self._admitted,
            degraded=self._degraded,
            queued=self._queued,
            rejected=self._rejected,
            reject_rate=self._rejected / self._decisions,
            startup_p50=pooled_percentile(self._startup, 50),
            startup_p95=pooled_percentile(self._startup, 95),
            startup_p99=pooled_percentile(self._startup, 99),
            startup_max=max(self._startup),
            rebuffer_mean=_exact_mean(self._rebuffer_sums, self._slos),
            rebuffer_max=self._rebuffer_max,
            delay_p50=pooled_percentile(self._delay, 50),
            delay_p95=pooled_percentile(self._delay, 95),
            delay_p99=pooled_percentile(self._delay, 99),
            buffer_p50=pooled_percentile(self._buffer, 50),
            buffer_p99=pooled_percentile(self._buffer, 99),
            goodput_mean=_exact_mean(self._goodput_sums, self._slos),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_hit_rate=cache_hits / lookups if lookups else 0.0,
            sessions=self._sessions(),
            qoe_tiers=tuple(sorted(self._tiers.items())),
        )

    def _sessions(self) -> SessionSLOTable:
        """The kept units as one table, ordered by session id (one argsort)."""
        if not self._kept:
            return SessionSLOTable.from_rows(())
        sizes, nodes, qoes, histograms, kept = zip(*self._kept)
        ids, labels, statuses, *scalars = map(np.concatenate, zip(*kept))
        scalars.insert(_SCALARS.index("num_nodes"), np.repeat(nodes, sizes))
        qoe = [row for unit, size in zip(qoes, sizes) for row in unit or (None,) * size]
        # A loss-free unit's one histogram row is every session's.
        rows = [len(delay[2]) for delay, _ in histograms]
        repeats = np.repeat([size // r for size, r in zip(sizes, rows)], rows)
        # Per kind (delay, buffer): every unit's values, counts and row lengths.
        flat = [[np.concatenate(column) for column in zip(*kind)] for kind in zip(*histograms)]
        spans = [
            np.stack((np.cumsum(n) - n, np.cumsum(n)), axis=1).repeat(repeats, axis=0)
            for _, _, n in flat
        ]
        pairs = [np.stack((values, counts), axis=1) for values, counts, _ in flat]
        table = SessionSLOTable(self._labels, ids, labels, statuses, *scalars, *spans, qoe, *pairs)
        return table[np.argsort(ids, kind="stable")]
