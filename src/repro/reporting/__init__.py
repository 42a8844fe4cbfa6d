"""Plain-text reporting helpers and run-history persistence.

* :mod:`repro.reporting.tables` / :mod:`repro.reporting.series` — ASCII
  tables and plots used by the benchmark harness;
* :mod:`repro.reporting.export` — JSON/CSV trace, report, and Chrome-trace
  span export;
* :mod:`repro.reporting.ledger` — the append-only JSONL run ledger behind
  ``repro runs``.
"""

from repro.reporting.ledger import (
    LEDGER_ENV_VAR,
    RunLedger,
    default_ledger,
    run_record,
)
from repro.reporting.series import ascii_plot, series_table
from repro.reporting.tables import format_rows, format_table

__all__ = [
    "LEDGER_ENV_VAR",
    "RunLedger",
    "ascii_plot",
    "default_ledger",
    "format_rows",
    "format_table",
    "run_record",
    "series_table",
]
