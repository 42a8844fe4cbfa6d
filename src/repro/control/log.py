"""Decision log: control-plane actions as ledger records.

The acceptance bar for the control plane is *replayability*: a run's
decisions must be reconstructible from its ledger record alone.  The
helpers here are the two directions of that round-trip —
:func:`control_record` serializes a decision sequence into one
append-only :class:`~repro.reporting.ledger.RunLedger` record, and
:func:`decisions_from_record` rebuilds the exact
:class:`~repro.control.policy.ControlDecision` objects from it.  Because
the controllers are deterministic in ``(FleetSpec, seed)``, re-running the
spec and replaying the log must agree decision-for-decision; the CI
``control-plane-smoke`` job asserts exactly that.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.control.policy import ControlDecision
from repro.core.errors import ReproError

__all__ = ["CONTROL_RECORD", "control_record", "decisions_from_record"]

#: ``record`` tag distinguishing decision logs from ``run``/``bench`` lines.
CONTROL_RECORD = "control"


def control_record(
    decisions: Iterable[ControlDecision],
    *,
    epochs: Sequence[dict[str, Any]] = (),
    policy: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One JSON-safe ledger record holding a run's full decision log.

    Args:
        decisions: the decisions the control plane made, in order.
        epochs: optional per-epoch observation rows (p99, admission tallies)
            for side-by-side reading with the decisions.
        policy: optional JSON-safe policy summary (setpoint, band, epoch
            size) so the record is self-contained.
    """
    record: dict[str, Any] = {
        "record": CONTROL_RECORD,
        "decisions": [decision.to_dict() for decision in decisions],
    }
    if epochs:
        record["epochs"] = [dict(row) for row in epochs]
    if policy is not None:
        record["policy"] = dict(policy)
    return record


def decisions_from_record(record: dict[str, Any]) -> list[ControlDecision]:
    """Rebuild the decision sequence from a :func:`control_record` line.

    Raises :class:`~repro.core.errors.ReproError` when the record is not a
    control record; individual decisions re-validate through
    :meth:`ControlDecision.from_dict`, so a tampered log fails loudly
    rather than replaying wrong.
    """
    if record.get("record") != CONTROL_RECORD:
        raise ReproError(
            f"not a control record: record={record.get('record')!r}"
        )
    payload = record.get("decisions", [])
    if not isinstance(payload, list):
        raise ReproError("control record 'decisions' must be a list")
    return [
        ControlDecision.from_dict(entry, f"control record decision {index}")
        for index, entry in enumerate(payload)
    ]
