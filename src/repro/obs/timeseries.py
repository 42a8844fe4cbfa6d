"""Tumbling-window time-series aggregation for fleet telemetry.

A :class:`TimeSeries` buckets observations into fixed-width tumbling
windows keyed by an integer time coordinate (for fleet runs: the session
arrival slot).  Each window independently aggregates two kinds of series,
both additive (no value is last-write-wins), so whole-number counts and
tables do not depend on the order the observations arrive in:

* **counter** — monotone totals per window; :meth:`rate` divides by the
  window width to expose per-slot rates (throughput, admissions).
* **sketch** — an exact ``value -> count`` table per window, so each
  window answers p50/p99 queries exactly
  (:func:`repro.obs.quantiles.pooled_percentile`).

Windows are created lazily on first touch, so sparse series stay sparse.
:meth:`rows` emits one flat dict per ``(window, series)`` pair for table
rendering, and :meth:`to_dict` serializes the whole series (each table as
sorted ``[value, count]`` pairs) for export.

The fleet runner feeds a ``TimeSeries`` from unit-completion callbacks
(see :class:`repro.service.runner.FleetTelemetry`); nothing here touches
wall clocks — time is whatever integer coordinate the caller supplies.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from .quantiles import pooled_percentile

__all__ = ["TimeSeries", "WindowStats"]


class WindowStats:
    """Aggregates for one tumbling window (created lazily)."""

    __slots__ = ("counters", "sketches")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.sketches: dict[str, Counter[float]] = {}


class TimeSeries:
    """Tumbling-window aggregation over an integer time coordinate.

    Args:
        window: window width in time units (slots); each window ``w``
            covers ``[w * window, (w + 1) * window)``.
    """

    __slots__ = ("window", "_windows")

    def __init__(self, window: int = 8) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._windows: dict[int, WindowStats] = {}

    # ------------------------------------------------------------ ingestion
    def _window_of(self, time: int) -> WindowStats:
        if time < 0:
            raise ValueError(f"time coordinate must be >= 0, got {time}")
        key = time // self.window
        stats = self._windows.get(key)
        if stats is None:
            stats = self._windows[key] = WindowStats()
        return stats

    def count(self, name: str, time: int, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` in ``time``'s window."""
        stats = self._window_of(time)
        stats.counters[name] = stats.counters.get(name, 0.0) + amount

    def observe(self, name: str, time: int, *values: float) -> None:
        """Count each of ``values`` (one or more) in ``name``'s window table."""
        if not values:
            raise ValueError(f"observe({name!r}) needs at least one value")
        stats = self._window_of(time)
        table = stats.sketches.get(name)
        if table is None:
            table = stats.sketches[name] = Counter()
        table.update(values)

    # -------------------------------------------------------------- queries
    @property
    def num_windows(self) -> int:
        return len(self._windows)

    def windows(self) -> list[int]:
        """Sorted window indices that received any data."""
        return sorted(self._windows)

    def total(self, name: str) -> float:
        """Sum of counter ``name`` across all windows."""
        return sum(
            stats.counters.get(name, 0.0) for stats in self._windows.values()
        )

    def series(self, name: str) -> list[tuple[int, float]]:
        """``(window, total)`` pairs for counter ``name`` (sorted, dense
        over the touched range; untouched windows report 0)."""
        if not self._windows:
            return []
        lo, hi = min(self._windows), max(self._windows)
        return [
            (w, self._windows[w].counters.get(name, 0.0) if w in self._windows else 0.0)
            for w in range(lo, hi + 1)
        ]

    def rate(self, name: str) -> list[tuple[int, float]]:
        """``(window, per-slot rate)`` pairs for counter ``name``."""
        return [(w, total / self.window) for w, total in self.series(name)]

    def quantile(self, name: str, q: float) -> list[tuple[int, float]]:
        """``(window, q-th percentile)`` for sketch series ``name``."""
        return [
            (w, pooled_percentile(self._windows[w].sketches[name], q))
            for w in sorted(self._windows)
            if name in self._windows[w].sketches
        ]

    # ------------------------------------------------------------ rendering
    def rows(self) -> list[dict[str, Any]]:
        """One flat dict per (window, series) pair, table-ready."""
        out: list[dict[str, Any]] = []
        for w in sorted(self._windows):
            stats = self._windows[w]
            start = w * self.window
            for name in sorted(stats.counters):
                total = stats.counters[name]
                out.append({
                    "window": w, "start_slot": start, "series": name,
                    "kind": "counter", "value": total,
                    "rate": total / self.window,
                })
            for name in sorted(stats.sketches):
                table = stats.sketches[name]
                out.append({
                    "window": w, "start_slot": start, "series": name,
                    "kind": "sketch", "count": sum(table.values()),
                    "p50": pooled_percentile(table, 50),
                    "p99": pooled_percentile(table, 99),
                    "max": max(table),
                })
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dump of every window; each sketch series is
        its table as sorted ``[value, count]`` pairs."""
        return {
            "window": self.window,
            "windows": {
                str(w): {
                    "counters": dict(stats.counters),
                    "sketches": {
                        name: [[value, count] for value, count in sorted(table.items())]
                        for name, table in stats.sketches.items()
                    },
                }
                for w, stats in sorted(self._windows.items())
            },
        }
