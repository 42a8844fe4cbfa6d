"""The one nearest-rank rule over exact ``value -> count`` tables.

Every population the project reports a quantile of is a table of exact
counts: the fleet report's startup delays, playback delays and buffer
peaks (slot and packet counts bounded by the schedule horizon plus the
queue-wait bound), a telemetry window's startup delays and rebuffer
ratios (a count over ``N * P`` pairs), and the convergence detector's
tracked delays.  Such a table is bounded in memory by the number of
distinct values, so no estimate is ever needed: both functions here read
the table exactly.

A value comes back as the object that was counted, so a table of ints
answers with an int.
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal
from typing import TypeVar

from repro.core.errors import ReproError

__all__ = ["pooled_percentile", "value_at_rank"]

V = TypeVar("V", int, float)


def value_at_rank(counts: Mapping[V, int], rank: int) -> V:
    """The value at 1-based ``rank`` of the sorted population ``counts``
    describes (each value repeated ``counts[value]`` times)."""
    total = sum(counts.values())
    if not 1 <= rank <= total:
        raise ReproError(f"rank must be in [1, {total}], got {rank}")
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise AssertionError("unreachable: rank <= total")  # pragma: no cover


def pooled_percentile(counts: Mapping[V, int], q: float) -> V:
    """Nearest-rank ``q``-th percentile of a ``value -> count`` table.

    Exact over the pooled population; ``q`` is in ``[0, 100]`` and the
    rank is ``max(1, ceil(q * n / 100))`` over the ``n`` counted values,
    computed on ``q``'s decimal value (``str(float(q))``), so float noise
    never moves it: the 99.9th percentile of 1,000 values is rank 999.
    """
    if not 0 <= q <= 100:
        raise ReproError(f"percentile must be in [0, 100], got {q}")
    total = sum(counts.values())
    if total == 0:
        raise ReproError("empty distribution has no percentiles")
    numerator, denominator = Decimal(str(float(q))).as_integer_ratio()
    return value_at_rank(counts, max(1, -(-numerator * total // (100 * denominator))))
