"""Trace export: persist simulation runs as JSON or CSV for offline analysis.

A :class:`~repro.core.engine.SimTrace` is the ground truth of a run; these
helpers serialize the parts downstream tooling cares about — per-node arrival
traces, the transmission log, and aggregate metrics — in formats that load
without this package installed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.core.engine import SimTrace
from repro.core.errors import ReproError, check_payload, read_json
from repro.core.metrics import SchemeMetrics
from repro.obs.spans import span_rows

__all__ = [
    "trace_to_dict",
    "write_trace_json",
    "read_trace_json",
    "trace_from_dict",
    "write_transmissions_csv",
    "write_arrivals_csv",
    "metrics_to_dict",
    "instrumentation_to_dict",
    "write_metrics_json",
    "fleet_report_to_dict",
    "write_fleet_report_json",
    "read_fleet_report_json",
    "abr_report_to_dict",
    "write_abr_report_json",
    "read_abr_report_json",
    "spans_to_chrome_trace",
    "write_chrome_trace_json",
]

_FORMAT_VERSION = 1


def _repro_version() -> str:
    from repro import __version__

    return __version__


def _check_envelope(payload: dict, *, expected_kind: str, what: str) -> None:
    """Validate the versioned envelope of a report payload.

    Rejects a ``format_version`` mismatch, a ``kind`` mismatch, and a
    ``repro_version`` whose *major* differs from this package's (minor/patch
    drift is compatible by policy; majors are not).  Reports written before
    ``repro_version`` existed are accepted as legacy.  The ``report`` must
    be a JSON object.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported report format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    kind = payload.get("kind")
    if kind != expected_kind:
        raise ReproError(f"not a {what}: kind={kind!r} (expected {expected_kind!r})")
    written_by = payload.get("repro_version")
    if written_by is not None:
        ours = _repro_version()
        written_major = str(written_by).split(".", 1)[0]
        our_major = ours.split(".", 1)[0]
        if written_major != our_major:
            raise ReproError(
                f"report was written by repro {written_by}, which is a "
                f"different major version than this package ({ours}); "
                "re-export it with a matching major"
            )
    report = payload.get("report")
    if not isinstance(report, dict):
        raise ReproError(f"{what}: 'report' must be an object, got {type(report).__name__}")


def trace_to_dict(
    trace: SimTrace,
    *,
    include_transmissions: bool = True,
    instrumentation=None,
) -> dict:
    """JSON-serializable snapshot of a trace.

    ``instrumentation`` (an :class:`~repro.obs.Instrumentation`) embeds the
    run's metrics/profile/event-count snapshot under an ``instrumentation``
    key; readers that predate the key ignore it.
    """
    payload = {
        "format_version": _FORMAT_VERSION,
        "num_slots": trace.num_slots,
        "arrivals": {
            str(node): {str(p): s for p, s in sorted(state.arrivals.items())}
            for node, state in sorted(trace.nodes.items())
        },
        "neighbors": {
            str(node): sorted(state.neighbors)
            for node, state in sorted(trace.nodes.items())
        },
    }
    if instrumentation is not None:
        payload["instrumentation"] = instrumentation_to_dict(instrumentation)
    if include_transmissions:
        payload["transmissions"] = [
            {
                "slot": tx.slot,
                "sender": tx.sender,
                "receiver": tx.receiver,
                "packet": tx.packet,
                "latency": tx.latency,
                "tree": tx.tree,
            }
            for tx in trace.transmissions
        ]
    return payload


def write_trace_json(trace: SimTrace, path: str | Path, **kwargs) -> Path:
    """Write a trace snapshot to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(trace_to_dict(trace, **kwargs), indent=1))
    return path


def read_trace_json(path: str | Path) -> dict:
    """Load a snapshot written by :func:`write_trace_json` (plain dict form).

    Arrival maps are re-keyed to ints for convenience.  A malformed file
    raises :class:`ReproError` naming the path and the entry.
    """
    from repro.core.packet import Transmission

    payload = read_json(path, "trace JSON")
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported trace format version {version!r} (expected {_FORMAT_VERSION})"
        )
    what = f"trace JSON {path}"
    payload["arrivals"] = {
        node: _int_keyed(packets, f"{what} arrivals[{node}]", slots=True)
        for node, packets in _int_keyed(payload.get("arrivals"), f"{what} arrivals").items()
    }
    payload["neighbors"] = _int_keyed(payload.get("neighbors"), f"{what} neighbors")
    rows = payload.get("transmissions", [])
    if not isinstance(rows, list):
        raise ReproError(f"{what} transmissions must be a list, got {type(rows).__name__}")
    for index, row in enumerate(rows):
        check_payload(row, Transmission, f"{what} transmission {index}")
    return payload


def _int_keyed(mapping: object, what: str, slots: bool = False) -> dict:
    """A JSON object with its string keys as ints (and, for ``slots``, its
    values checked as int slots); :class:`ReproError` names a bad entry."""
    if not isinstance(mapping, dict):
        raise ReproError(f"{what} must be an object, got {type(mapping).__name__}")
    keyed = {}
    for key, value in mapping.items():
        try:
            keyed[int(key)] = value
        except ValueError:
            raise ReproError(f"{what}: key {key!r} is not an int") from None
        if slots and (isinstance(value, bool) or not isinstance(value, int)):
            raise ReproError(f"{what}[{key}]: slot must be an int, got {value!r}")
    return keyed


def trace_from_dict(payload: dict) -> SimTrace:
    """Rebuild a :class:`SimTrace` from a loaded snapshot.

    The reconstruction carries the arrival traces and (if present) the full
    transmission log — enough for metrics and post-hoc auditing.  Sender-side
    state (``sent_to``/``packets_sent``) is re-derived from the log.
    """
    from repro.core.node import NodeState
    from repro.core.packet import Transmission

    if "arrivals" not in payload:
        raise ReproError("snapshot has no arrivals section")
    arrivals = payload["arrivals"]
    if arrivals and isinstance(next(iter(arrivals)), str):
        payload = dict(payload)
        payload["arrivals"] = {
            int(node): {int(p): s for p, s in packets.items()}
            for node, packets in arrivals.items()
        }
    nodes: dict[int, NodeState] = {}
    for node, packets in payload["arrivals"].items():
        state = NodeState(node)
        state.arrivals.update(packets)
        nodes[node] = state
    transmissions = [
        Transmission(
            slot=row["slot"],
            sender=row["sender"],
            receiver=row["receiver"],
            packet=row["packet"],
            latency=row.get("latency", 1),
            tree=row.get("tree"),
        )
        for row in payload.get("transmissions", [])
    ]
    sources: dict[int, NodeState] = {}
    for tx in transmissions:
        owner = nodes.get(tx.sender)
        if owner is None:
            owner = sources.setdefault(tx.sender, NodeState(tx.sender))
        owner.sent_to.add(tx.receiver)
        owner.packets_sent += 1
        receiver = nodes.get(tx.receiver)
        if receiver is not None:
            receiver.received_from.add(tx.sender)
    return SimTrace(
        num_slots=payload.get("num_slots", 0),
        nodes=nodes,
        source_states=sources,
        transmissions=transmissions,
    )


def write_transmissions_csv(trace: SimTrace, path: str | Path) -> Path:
    """One row per transmission: slot, sender, receiver, packet, latency, tree."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "sender", "receiver", "packet", "latency", "tree"])
        for tx in trace.transmissions:
            writer.writerow(
                [tx.slot, tx.sender, tx.receiver, tx.packet, tx.latency,
                 "" if tx.tree is None else tx.tree]
            )
    return path


def write_arrivals_csv(trace: SimTrace, path: str | Path) -> Path:
    """One row per (node, packet) arrival."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "packet", "arrival_slot"])
        for node, state in sorted(trace.nodes.items()):
            for packet, slot in sorted(state.arrivals.items()):
                writer.writerow([node, packet, slot])
    return path


def instrumentation_to_dict(instrumentation) -> dict:
    """Serializable view of an :class:`~repro.obs.Instrumentation` bundle.

    Keys present only for the parts that were attached: ``metrics`` (registry
    snapshot), ``profile`` (phase name -> its :func:`~repro.obs.spans.span_rows`
    stats: calls, total, self time, mean, max, share), ``event_counts``
    (per-name tallies — the cheap summary; the full stream lives in the
    tracer's JSONL sink, not here).
    """
    payload: dict = {}
    if instrumentation.registry is not None:
        payload["metrics"] = instrumentation.registry.snapshot()
    if instrumentation.spans is not None:
        payload["profile"] = {
            row.pop("name"): row
            for row in span_rows(instrumentation.spans.finished)
        }
    if instrumentation.tracer is not None:
        payload["event_counts"] = dict(instrumentation.tracer.counts)
    return payload


def write_metrics_json(instrumentation, path: str | Path) -> Path:
    """Write an instrumentation snapshot alone (no trace) to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(instrumentation_to_dict(instrumentation), indent=1))
    return path


def fleet_report_to_dict(report) -> dict:
    """Versioned JSON envelope of a :class:`~repro.service.FleetSLOReport`."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": "fleet_slo_report",
        "repro_version": _repro_version(),
        "report": report.to_dict(),
    }


def write_fleet_report_json(report, path: str | Path) -> Path:
    """Write a fleet SLO report to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(fleet_report_to_dict(report), indent=1))
    return path


def read_fleet_report_json(path: str | Path):
    """Load a report written by :func:`write_fleet_report_json`.

    Returns a :class:`~repro.service.FleetSLOReport` equal to the one
    written (the full round-trip, per-session detail included).
    """
    from repro.service.slo import FleetSLOReport

    payload = read_json(path, "fleet SLO report")
    _check_envelope(payload, expected_kind="fleet_slo_report", what="fleet SLO report")
    return FleetSLOReport.from_dict(payload["report"])


def abr_report_to_dict(report) -> dict:
    """Versioned JSON envelope of an :class:`~repro.abr.AbrTradeoffReport`."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": "abr_tradeoff_report",
        "repro_version": _repro_version(),
        "report": report.to_dict(),
    }


def write_abr_report_json(report, path: str | Path) -> Path:
    """Write an ABR delay/buffer tradeoff report to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(abr_report_to_dict(report), indent=1))
    return path


def read_abr_report_json(path: str | Path):
    """Load a report written by :func:`write_abr_report_json`.

    Returns an :class:`~repro.abr.AbrTradeoffReport` equal to the one written
    (full round trip, per-point QoE included).
    """
    from repro.abr.sweep import AbrTradeoffReport

    payload = read_json(path, "ABR tradeoff report")
    _check_envelope(
        payload, expected_kind="abr_tradeoff_report", what="ABR tradeoff report"
    )
    return AbrTradeoffReport.from_dict(payload["report"])


def spans_to_chrome_trace(spans) -> dict:
    """Convert recorded spans to the Chrome trace-event JSON format.

    ``spans`` is a :class:`~repro.obs.spans.SpanTracer` or an iterable of
    :class:`~repro.obs.spans.Span`.  Each span becomes a complete
    (``"ph": "X"``) event with microsecond ``ts``/``dur``, so the file loads
    directly in ``chrome://tracing`` / Perfetto.  Span attributes ride in
    ``args`` alongside the span/parent ids.
    """
    finished = getattr(spans, "finished", spans)
    events = []
    for span in finished:
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.dur_s * 1e6,
                "pid": span.pid,
                "tid": span.pid,
                "id": span.trace_id,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace_json(spans, path: str | Path) -> Path:
    """Write spans as a Chrome trace to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(spans_to_chrome_trace(spans), indent=1))
    return path


def metrics_to_dict(metrics: SchemeMetrics) -> dict:
    """JSON-serializable aggregate metrics, including the per-node detail."""
    return {
        **metrics.row(),
        "per_node": {
            str(node): {
                "startup_delay": s.startup_delay,
                "buffer_peak": s.buffer_peak,
                "first_arrival_slot": s.first_arrival_slot,
            }
            for node, s in sorted(metrics.per_node.items())
        },
    }
