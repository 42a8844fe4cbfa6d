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
  :meth:`SessionColumns.slos` builds the :class:`SessionSLO` rows;
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
  round-trips through ``reporting/export.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.errors import ReproError
from repro.exec.batch import BatchMetrics
from repro.obs.quantiles import pooled_percentile
from repro.service.admission import ADMITTED, DEGRADED, REJECTED, STATUSES, DecisionTable

__all__ = [
    "pooled_percentile",
    "SessionColumns",
    "SessionSLO",
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
        out = {
            "session": self.session_id,
            "label": self.label,
            "status": self.status,
            "wait": self.wait_slots,
            "startup": self.startup_delay,
            "rebuffer": round(self.rebuffer_ratio, 5),
            "delay_p50": self.delay_p50,
            "delay_p99": self.delay_p99,
            "buffer_p99": self.buffer_p99,
            "goodput": round(self.goodput, 4),
        }
        if self.qoe is not None:
            out["qoe_tier"] = self.qoe["tier"]
        return out


def _row_histograms(
    matrix: np.ndarray,
) -> list[tuple[tuple[int, int], ...]]:
    """Per-row ``(value, count)`` tuples of a non-negative int matrix.

    One ``bincount`` over row-offset values replaces a Python ``Counter``
    per row — the per-session cost is proportional to the row's distinct
    values, not its length.
    """
    num_rows = matrix.shape[0]
    width = int(matrix.max()) + 1
    offsets = np.arange(num_rows, dtype=np.int64)[:, None] * width
    counts = np.bincount(
        (matrix.astype(np.int64) + offsets).ravel(), minlength=num_rows * width
    ).reshape(num_rows, width)
    rows, values = np.nonzero(counts)
    pairs = list(zip(values.tolist(), counts[rows, values].tolist()))
    bounds = np.searchsorted(rows, np.arange(num_rows + 1)).tolist()
    return [tuple(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


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

    def slos(self) -> list[SessionSLO]:
        """One :class:`SessionSLO` per row, in row order."""
        total = len(self)
        rows = 1 if self.loss_free else total  # loss-free rows share one tuple
        histograms = [
            _row_histograms(matrix[:rows]) * (total // rows)
            for matrix in (self.node_delays, self.node_buffers)
        ]
        columns = [
            column.tolist() for column in (
                self.wait_slots, self.startup_delay, self.rebuffer_ratio,
                self.delay_p50, self.delay_p95, self.delay_p99,
                self.buffer_p50, self.buffer_p99, self.goodput,
                self.num_packets,
            )
        ]
        num_nodes = self.node_delays.shape[1]
        return [
            SessionSLO(*row[:12], num_nodes, *row[12:])
            for row in zip(
                self.session_ids, self.labels, self.statuses, *columns,
                *histograms, self.qoe or (None,) * total,
            )
        ]


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
        sessions: every admitted session's :class:`SessionSLO`.
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
    sessions: tuple[SessionSLO, ...]
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
        payload = asdict(self)
        payload["sessions"] = [asdict(s) for s in self.sessions]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetSLOReport":
        """Rebuild a report from :meth:`to_dict` output (JSON round-trip)."""
        payload = dict(payload)
        sessions = []
        for row in payload.pop("sessions", []):
            row = dict(row)
            row["delay_counts"] = tuple(tuple(p) for p in row["delay_counts"])
            row["buffer_counts"] = tuple(tuple(p) for p in row["buffer_counts"])
            sessions.append(SessionSLO(**row))
        qoe_tiers = tuple(
            (str(tier), int(count)) for tier, count in payload.pop("qoe_tiers", ())
        )
        return cls(sessions=tuple(sessions), qoe_tiers=qoe_tiers, **payload)


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
        keep_sessions: retain every :class:`SessionSLO` for the report's
            ``sessions`` tuple.  Set False at fleet scale — the whole point
            of streaming aggregation is not materializing per-session
            results.
    """

    __slots__ = (
        "keep_sessions",
        "_startup", "_delay", "_buffer",
        "_admitted", "_degraded", "_rejected", "_queued", "_decisions",
        "_rebuffer_sums", "_rebuffer_max", "_goodput_sums", "_slos",
        "_tiers", "_sessions",
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
        self._sessions: list[SessionSLO] = []

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
        times the unit size if loss-free) and per mean's numerator column,
        and with ``keep_sessions`` the unit's :class:`SessionSLO` rows."""
        if not isinstance(columns, SessionColumns):
            raise ReproError(f"add_sessions takes SessionColumns, got {type(columns).__name__}")
        total = len(columns)
        rows = 1 if columns.loss_free else total
        for table, values, times in (
            (self._startup, columns.startup_delay, 1),
            (self._delay, columns.node_delays[:rows], total // rows),
            (self._buffer, columns.node_buffers[:rows], total // rows),
        ):
            counts = np.bincount(values.ravel())
            present = counts.nonzero()[0]
            table.update(dict(zip(present.tolist(), (counts[present] * times).tolist())))
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
        if self.keep_sessions:
            self._sessions.extend(columns.slos())

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
            # Batch-grouped execution folds sessions in schedule-group
            # order; the report always lists them by session id.
            sessions=tuple(sorted(self._sessions, key=lambda s: s.session_id)),
            qoe_tiers=tuple(sorted(self._tiers.items())),
        )

