"""Run ledger: an append-only JSONL record of every experiment run.

A reproduction's history is part of its evidence.  :class:`RunLedger` keeps
one line of JSON per :func:`repro.run` invocation — what ran (kind, scheme,
sizes, seed), how it ran (cache traffic, executor mode, fallbacks), how long
it took, and when — so "what did we run last week?" is a ``repro runs``
away instead of an archaeology dig.

Design constraints:

* **append-only** — records are never rewritten; corrupt or foreign lines
  are skipped on read, so a ledger survives interleaved writers and partial
  writes of the final line;
* **versioned** — every record carries ``ledger_version`` and the package
  version that wrote it;
* **self-contained** — records are plain JSON; reading one back needs
  nothing from this package.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.core.errors import ReproError
from repro.obs.spans import wall_time_s

__all__ = [
    "LEDGER_ENV_VAR",
    "LEDGER_VERSION",
    "RunLedger",
    "default_ledger",
    "run_record",
]

LEDGER_VERSION = 1

#: Environment variable naming the default ledger path for ``repro.run``.
LEDGER_ENV_VAR = "REPRO_LEDGER"


class RunLedger:
    """Append-only JSONL ledger at ``path``.

    The file (and its parent directory) is created on first append.  Reads
    tolerate missing files (empty ledger) and skip lines that are not valid
    JSON objects — a torn final line from a crashed writer never poisons
    the history.
    """

    __slots__ = ("path",)

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Append one record; returns it with the envelope fields added.

        The envelope stamps ``ledger_version``, the package version, and a
        ``time_s`` wall-clock timestamp (unless the record already carries
        one).  Records must be JSON-serializable dicts.
        """
        if not isinstance(record, dict):
            raise ReproError(
                f"ledger records are dicts, got {type(record).__name__}"
            )
        from repro import __version__

        stamped: dict[str, Any] = {
            "ledger_version": LEDGER_VERSION,
            "repro_version": __version__,
            "time_s": record.get("time_s", wall_time_s()),
        }
        stamped.update(record)
        line = json.dumps(stamped, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(line + "\n")
        return stamped

    def records(self) -> list[dict[str, Any]]:
        """Every readable record, in append order."""
        return list(self)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        if not self.path.exists():
            return
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn/foreign line: skip, never raise
                if isinstance(record, dict):
                    yield record

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def tail(self, count: int) -> list[dict[str, Any]]:
        """The last ``count`` records (fewer if the ledger is shorter)."""
        if count < 0:
            raise ReproError(f"tail count must be >= 0, got {count}")
        records = self.records()
        return records[len(records) - count:] if count else []


def default_ledger() -> RunLedger | None:
    """The ledger named by ``$REPRO_LEDGER``, or None when unset/empty."""
    path = os.environ.get(LEDGER_ENV_VAR, "").strip()
    return RunLedger(path) if path else None


def _spec_summary(spec: Any) -> dict[str, Any]:
    """The compact, always-JSON-safe slice of an ExperimentSpec."""
    summary: dict[str, Any] = {
        "kind": spec.kind,
        "scheme": spec.scheme,
        "num_nodes": spec.num_nodes,
        "degree": spec.degree,
        "num_packets": spec.num_packets,
        "seed": spec.seed,
    }
    if spec.drop_rate:
        summary["drop_rate"] = spec.drop_rate
    if spec.kind == "sweep":
        summary["grid_points"] = len(spec.grid())
    if spec.kind == "fleet" and spec.fleet is not None:
        fleet = spec.fleet
        summary["fleet_sessions"] = fleet.num_sessions
        summary["aggregation"] = fleet.aggregation
        if fleet.convergence is not None:
            summary["run_until_converged"] = True
        if fleet.controller is not None:
            summary["controlled"] = True
    return summary


def run_record(spec: Any, result: Any) -> dict[str, Any]:
    """One ledger record for a finished ``repro.run`` call.

    Captures the spec summary, row count, wall time, and the provenance
    dict (already JSON-safe: cache outcome, executor info, version).
    """
    return {
        "record": "run",
        "spec": _spec_summary(spec),
        "rows": len(result.rows),
        "timing_s": result.timing_s,
        "provenance": result.provenance,
    }

