"""Per-session and fleet-level SLOs: what the users of the fleet experience.

The paper scores a single run by worst/average playback delay and buffer
peak; a service tracks the same quantities as *distributions over sessions*
plus the smoothness metrics the throughput-smoothness literature argues users
actually feel (rebuffer/skip behavior), and the admission metrics the
capacity literature adds (reject rate, queue wait):

* :func:`score_session` turns one session's replayed arrival traces into a
  :class:`SessionSLO` — startup delay (including any admission queue wait),
  rebuffer ratio, per-node playback-delay and buffer percentiles, goodput —
  carrying compact ``(value, count)`` distributions so fleet-level
  percentiles pool *exactly* across sessions;
* :class:`FleetSLOReport` aggregates sessions + admission decisions into the
  fleet report (p50/p95/p99 over the pooled per-node populations, reject
  rate, schedule-cache amortization) and round-trips through
  ``reporting/export.py``;
* :class:`FleetAggregator` is the streaming aggregator behind
  :func:`aggregate_fleet`: admission decisions and session SLOs fold into
  mergeable :class:`~repro.obs.sketch.QuantileSketch` populations one at a
  time, so fleet percentiles never require materializing per-session
  results.  ``relative_error=0`` (the :func:`aggregate_fleet` default)
  keeps every sketch in exact mode — reports are identical to the historical
  Counter-based pooling; ``relative_error>0`` bounds memory at fleet scale
  with the sketch's documented error guarantee (see ``docs/TELEMETRY.md``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from typing import Any
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.errors import ReproError
from repro.exec.batch import BatchMetrics
from repro.core.metrics import summarize_lossy_playback
from repro.obs.sketch import QuantileSketch

__all__ = [
    "pooled_percentile",
    "SessionSLO",
    "FleetSLOReport",
    "FleetAggregator",
    "score_session",
    "score_session_columns",
    "score_batch_sessions",
    "aggregate_fleet",
]


def pooled_percentile(counts: Mapping[int, int], q: float) -> int:
    """Nearest-rank percentile of a ``value -> count`` distribution.

    Exact over the pooled population (no per-session approximation); ``q``
    is in ``[0, 100]``.
    """
    if not 0 <= q <= 100:
        raise ReproError(f"percentile must be in [0, 100], got {q}")
    total = sum(counts.values())
    if total == 0:
        raise ReproError("empty distribution has no percentiles")
    rank = max(1, -(-int(q * total) // 100))  # ceil(q/100 * total), min 1
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    return max(counts)  # pragma: no cover - rank <= total by construction


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


def score_session(
    arrivals_by_node: Mapping[int, Mapping[int, int]],
    *,
    session_id: int,
    label: str,
    num_packets: int,
    num_slots: int,
    wait_slots: int = 0,
    status: str = "admitted",
) -> SessionSLO:
    """Score one session's replayed arrival traces into its SLO.

    Args:
        arrivals_by_node: node -> (packet -> arrival slot), from
            :func:`repro.exec.replay.replay_arrivals`.
        num_packets: measured stream prefix (post churn truncation).
        num_slots: slots the session ran (goodput denominator).
        wait_slots: admission queue wait, charged to startup delay.
        status: admission status carried into the report.
    """
    if not arrivals_by_node:
        raise ReproError("session has no receiver traces to score")
    if num_slots < 1:
        raise ReproError(f"num_slots must be >= 1, got {num_slots}")
    delay_counts: Counter[int] = Counter()
    buffer_counts: Counter[int] = Counter()
    missing = 0
    available = 0
    for arrivals in arrivals_by_node.values():
        summary = summarize_lossy_playback(arrivals, num_packets)
        delay_counts[summary.startup_delay] += 1
        buffer_counts[summary.buffer_peak] += 1
        missing += len(summary.missing)
        available += summary.available
    num_nodes = len(arrivals_by_node)
    return SessionSLO(
        session_id=session_id,
        label=label,
        status=status,
        wait_slots=wait_slots,
        startup_delay=max(delay_counts) + wait_slots,
        rebuffer_ratio=missing / (num_nodes * num_packets),
        delay_p50=pooled_percentile(delay_counts, 50),
        delay_p95=pooled_percentile(delay_counts, 95),
        delay_p99=pooled_percentile(delay_counts, 99),
        buffer_p50=pooled_percentile(buffer_counts, 50),
        buffer_p99=pooled_percentile(buffer_counts, 99),
        goodput=available / (num_nodes * num_slots),
        num_nodes=num_nodes,
        num_packets=num_packets,
        delay_counts=tuple(sorted(delay_counts.items())),
        buffer_counts=tuple(sorted(buffer_counts.items())),
    )


def score_session_columns(
    batch: BatchMetrics,
    index: int,
    *,
    session_id: int,
    label: str,
    wait_slots: int = 0,
    status: str = "admitted",
) -> SessionSLO:
    """Score one session of a batched kernel result into its SLO.

    The column-space counterpart of :func:`score_session`: session ``index``
    of a :class:`~repro.exec.batch.BatchMetrics` (run with
    ``keep_node_columns=True``) produces exactly the SLO that
    :func:`score_session` would compute from that session's replayed arrival
    traces — the kernel's per-node delay/buffer columns are slot-identical
    to :func:`~repro.core.metrics.summarize_lossy_playback`.
    """
    if batch.node_delays is None or batch.node_buffers is None:
        raise ReproError(
            "score_session_columns needs a batch run with keep_node_columns=True"
        )
    delay_counts: Counter[int] = Counter(int(v) for v in batch.node_delays[index])
    buffer_counts: Counter[int] = Counter(int(v) for v in batch.node_buffers[index])
    num_nodes = batch.num_nodes
    num_packets = batch.num_packets
    missing = int(batch.residual[index])
    available = int(batch.available[index])
    return SessionSLO(
        session_id=session_id,
        label=label,
        status=status,
        wait_slots=wait_slots,
        startup_delay=max(delay_counts) + wait_slots,
        rebuffer_ratio=missing / (num_nodes * num_packets),
        delay_p50=pooled_percentile(delay_counts, 50),
        delay_p95=pooled_percentile(delay_counts, 95),
        delay_p99=pooled_percentile(delay_counts, 99),
        buffer_p50=pooled_percentile(buffer_counts, 50),
        buffer_p99=pooled_percentile(buffer_counts, 99),
        goodput=available / (num_nodes * batch.num_slots),
        num_nodes=num_nodes,
        num_packets=num_packets,
        delay_counts=tuple(sorted(delay_counts.items())),
        buffer_counts=tuple(sorted(buffer_counts.items())),
    )


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


def score_batch_sessions(
    batch: BatchMetrics,
    *,
    session_ids: Sequence[int],
    labels: Sequence[str],
    wait_slots: Sequence[int] | None = None,
    statuses: Sequence[str] | None = None,
) -> list[SessionSLO]:
    """Score every session of a batched kernel result in one column pass.

    Produces exactly ``[score_session_columns(batch, i, ...) for i]`` — the
    per-session histograms, nearest-rank percentiles, and aggregates are
    computed from the batch's ``(B, num_nodes)`` delay/buffer columns with
    whole-matrix NumPy reductions instead of one Python ``Counter`` pass
    per session, which is what keeps fleet-scale SLO scoring off the
    profile.
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
    waits = tuple(wait_slots) if wait_slots is not None else (0,) * total
    kinds = tuple(statuses) if statuses is not None else ("admitted",) * total
    if len(waits) != total or len(kinds) != total:
        raise ReproError("wait_slots/statuses must align with the batch")
    num_nodes = batch.num_nodes
    num_packets = batch.num_packets

    delay_counts = _row_histograms(batch.node_delays)
    buffer_counts = _row_histograms(batch.node_buffers)
    sorted_delays = np.sort(batch.node_delays, axis=1)
    sorted_buffers = np.sort(batch.node_buffers, axis=1)

    def rank(q: float) -> int:
        # pooled_percentile's nearest rank over a population of num_nodes.
        return max(1, -(-int(q * num_nodes) // 100)) - 1

    d50, d95, d99 = (sorted_delays[:, rank(q)] for q in (50, 95, 99))
    b50, b99 = (sorted_buffers[:, rank(q)] for q in (50, 99))
    return [
        SessionSLO(
            session_id=session_ids[i],
            label=labels[i],
            status=kinds[i],
            wait_slots=waits[i],
            startup_delay=int(sorted_delays[i, -1]) + waits[i],
            rebuffer_ratio=int(batch.residual[i]) / (num_nodes * num_packets),
            delay_p50=int(d50[i]),
            delay_p95=int(d95[i]),
            delay_p99=int(d99[i]),
            buffer_p50=int(b50[i]),
            buffer_p99=int(b99[i]),
            goodput=int(batch.available[i]) / (num_nodes * batch.num_slots),
            num_nodes=num_nodes,
            num_packets=num_packets,
            delay_counts=delay_counts[i],
            buffer_counts=buffer_counts[i],
        )
        for i in range(total)
    ]


@dataclass(frozen=True, slots=True)
class FleetSLOReport:
    """The fleet-level SLO report — the service's scorecard.

    Percentile fields pool the per-node populations of every admitted
    session exactly (via the sessions' compact histograms), so a 1000-session
    fleet's ``delay_p99`` is the true 99th percentile over all viewers, not
    an average of per-session percentiles.

    Attributes:
        num_sessions / admitted / degraded / queued / rejected: admission
            tallies (``queued`` counts sessions that waited, whatever their
            final outcome).
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


class FleetAggregator:
    """Streaming fleet-SLO aggregation with bounded memory.

    Feed admission decisions (:meth:`add_decision`) and session SLOs
    (:meth:`add_session`) as they arrive — e.g. from the executor's
    ``on_result`` streaming callback — then :meth:`report` at any point.

    Args:
        relative_error: sketch error bound for the pooled startup/delay/
            buffer populations.  ``0`` = exact (identical to the historical
            Counter pooling, memory grows with distinct values); ``> 0`` =
            bounded memory with quantiles within that relative error of
            exact (the documented :class:`~repro.obs.sketch.QuantileSketch`
            bound).
        exact_limit: distinct-value budget before a lossy sketch collapses.
        keep_sessions: retain every :class:`SessionSLO` for the report's
            ``sessions`` tuple.  Set False at fleet scale — the whole point
            of streaming aggregation is not materializing per-session
            results.
    """

    __slots__ = (
        "relative_error", "keep_sessions",
        "_startup", "_delay", "_buffer",
        "_admitted", "_degraded", "_rejected", "_queued", "_decisions",
        "_rebuffer_sum", "_rebuffer_max", "_goodput_sum", "_slos",
        "_tiers", "_sessions",
    )

    def __init__(
        self,
        *,
        relative_error: float = 0.0,
        exact_limit: int = 4096,
        keep_sessions: bool = True,
    ) -> None:
        self.relative_error = relative_error
        self.keep_sessions = keep_sessions
        self._startup = QuantileSketch(relative_error, exact_limit=exact_limit)
        self._delay = QuantileSketch(relative_error, exact_limit=exact_limit)
        self._buffer = QuantileSketch(relative_error, exact_limit=exact_limit)
        self._admitted = 0
        self._degraded = 0
        self._rejected = 0
        self._queued = 0
        self._decisions = 0
        self._rebuffer_sum = 0.0
        self._rebuffer_max = 0.0
        self._goodput_sum = 0.0
        self._slos = 0
        self._tiers: Counter[str] = Counter()
        self._sessions: list[SessionSLO] = []

    @property
    def num_sessions_aggregated(self) -> int:
        return self._slos

    def add_decision(self, decision: Any) -> None:
        """Tally one admission decision (any object with ``status`` /
        ``admitted`` / ``wait_slots``, i.e. ``SessionDecision``)."""
        self._decisions += 1
        if decision.status == "admitted":
            self._admitted += 1
        elif decision.status == "degraded":
            self._degraded += 1
        elif decision.status == "rejected":
            self._rejected += 1
        if decision.admitted and decision.wait_slots > 0:
            self._queued += 1

    def add_session(self, slo: SessionSLO) -> None:
        """Fold one session's SLO into the pooled populations."""
        self._startup.add(slo.startup_delay)
        for value, count in slo.delay_counts:
            self._delay.add(value, count)
        for value, count in slo.buffer_counts:
            self._buffer.add(value, count)
        self._slos += 1
        self._rebuffer_sum += slo.rebuffer_ratio
        self._rebuffer_max = max(self._rebuffer_max, slo.rebuffer_ratio)
        self._goodput_sum += slo.goodput
        if slo.qoe is not None:
            self._tiers[slo.qoe["tier"]] += 1
        if self.keep_sessions:
            self._sessions.append(slo)

    def add_sessions(self, slos: Sequence[SessionSLO]) -> None:
        """Fold many SLOs at once — identical end state to one-at-a-time.

        Pools the sessions' compact histograms into plain ``Counter``s
        first and folds each distinct value into the quantile sketches
        once, so a fleet-sized batch costs sketch updates proportional to
        its distinct delay/buffer values rather than to sessions x nodes.
        The scalar tallies accumulate in session order, so float sums
        (``rebuffer_mean``) match the one-at-a-time fold bit for bit.
        """
        startup_pool: Counter[int] = Counter()
        delay_pool: Counter[int] = Counter()
        buffer_pool: Counter[int] = Counter()
        for slo in slos:
            startup_pool[slo.startup_delay] += 1
            for value, count in slo.delay_counts:
                delay_pool[value] += count
            for value, count in slo.buffer_counts:
                buffer_pool[value] += count
            self._slos += 1
            self._rebuffer_sum += slo.rebuffer_ratio
            self._rebuffer_max = max(self._rebuffer_max, slo.rebuffer_ratio)
            self._goodput_sum += slo.goodput
            if slo.qoe is not None:
                self._tiers[slo.qoe["tier"]] += 1
            if self.keep_sessions:
                self._sessions.append(slo)
        for value, count in startup_pool.items():
            self._startup.add(value, count)
        for value, count in delay_pool.items():
            self._delay.add(value, count)
        for value, count in buffer_pool.items():
            self._buffer.add(value, count)

    def startup_sketch(self) -> QuantileSketch:
        """The pooled per-session startup-delay sketch (read-only use)."""
        return self._startup

    def report(
        self, *, cache_hits: int = 0, cache_misses: int = 0
    ) -> FleetSLOReport:
        """Materialize the fleet report from everything folded so far."""
        if self._decisions == 0:
            raise ReproError("fleet produced no admission decisions")
        if self._slos == 0:
            raise ReproError("every session was rejected; no SLOs to aggregate")
        lookups = cache_hits + cache_misses
        # In exact mode the sketches store the original ints and quantile()
        # returns them unchanged; once collapsed, representatives are floats
        # and the report's integer fields round to the nearest slot.
        def as_slots(value: float) -> int:
            return int(value) if isinstance(value, int) else int(round(value))

        startup_max = self._startup.max
        return FleetSLOReport(
            num_sessions=self._decisions,
            admitted=self._admitted,
            degraded=self._degraded,
            queued=self._queued,
            rejected=self._rejected,
            reject_rate=self._rejected / self._decisions,
            startup_p50=as_slots(self._startup.quantile(50)),
            startup_p95=as_slots(self._startup.quantile(95)),
            startup_p99=as_slots(self._startup.quantile(99)),
            startup_max=as_slots(startup_max if startup_max is not None else 0),
            rebuffer_mean=self._rebuffer_sum / self._slos,
            rebuffer_max=self._rebuffer_max,
            delay_p50=as_slots(self._delay.quantile(50)),
            delay_p95=as_slots(self._delay.quantile(95)),
            delay_p99=as_slots(self._delay.quantile(99)),
            buffer_p50=as_slots(self._buffer.quantile(50)),
            buffer_p99=as_slots(self._buffer.quantile(99)),
            goodput_mean=self._goodput_sum / self._slos,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_hit_rate=cache_hits / lookups if lookups else 0.0,
            # Batch-grouped execution folds sessions in schedule-group
            # order; the report always lists them by session id.
            sessions=tuple(sorted(self._sessions, key=lambda s: s.session_id)),
            qoe_tiers=tuple(sorted(self._tiers.items())),
        )


def aggregate_fleet(
    decisions: Sequence,
    session_slos: Sequence[SessionSLO],
    *,
    cache_hits: int = 0,
    cache_misses: int = 0,
) -> FleetSLOReport:
    """Fold admission decisions and per-session SLOs into the fleet report.

    The batch entry point over :class:`FleetAggregator` in exact mode —
    byte-identical to the historical Counter-based pooling.
    """
    aggregator = FleetAggregator(relative_error=0.0, keep_sessions=True)
    for decision in decisions:
        aggregator.add_decision(decision)
    for slo in session_slos:
        aggregator.add_session(slo)
    return aggregator.report(cache_hits=cache_hits, cache_misses=cache_misses)
