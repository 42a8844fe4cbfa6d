"""Zero-dependency metrics registry: counters, gauges, histograms with labels.

The registry is the aggregation point of the instrumentation layer
(:mod:`repro.obs`): engine runs, repair coordinators, and sweep workers
increment named instruments; a :meth:`MetricsRegistry.snapshot` is a plain
picklable dict that crosses process boundaries (a pool worker's snapshot
rides back to the parent through :class:`~repro.exec.SweepExecutor`) and
serializes alongside traces (``reporting/export.py``).
:meth:`MetricsRegistry.merge` folds a snapshot back in: counters and
histograms add, gauges keep the maximum (the only order-independent choice
when merging concurrent workers).

Instruments are identified by ``(name, labels)``; labels are free-form
string pairs (``registry.counter("sweep.batch_sessions", scheme="multi-tree")``).
All mutation goes through one registry-wide lock, so a registry can be
shared between threads.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "global_registry",
    "active_registry",
    "use_registry",
]

#: Default histogram bucket upper bounds (roughly ×2 spaced; +inf implicit).
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value (occupancy, queue depth, last-seen slot)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta


class Histogram:
    """Distribution summary: bucketed counts plus count/sum/min/max."""

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum",
                 "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        lock: threading.Lock,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram buckets must be strictly increasing, got {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(buckets) + 1)  # last = overflow (+inf)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create home for instruments; snapshot/reset/merge lifecycle."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # ------------------------------------------------------------ instruments
    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(name, labels, self._lock)
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(name, labels, self._lock)
        return inst

    def histogram(
        self, name: str, *, buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels: str
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(name, labels, self._lock, buckets)
        return inst

    # ------------------------------------------------------------- lifecycle
    def snapshot(self) -> dict:
        """Plain picklable dict of every instrument's current state."""
        with self._lock:
            return {
                "counters": [
                    {"name": c.name, "labels": dict(c.labels), "value": c.value}
                    for c in self._counters.values()
                ],
                "gauges": [
                    {"name": g.name, "labels": dict(g.labels), "value": g.value}
                    for g in self._gauges.values()
                ],
                "histograms": [
                    {
                        "name": h.name,
                        "labels": dict(h.labels),
                        "buckets": list(h.buckets),
                        "bucket_counts": list(h.bucket_counts),
                        "count": h.count,
                        "sum": h.sum,
                        "min": h.min,
                        "max": h.max,
                    }
                    for h in self._histograms.values()
                ],
            }

    def reset(self) -> None:
        """Drop every instrument (a fresh registry, same identity)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (typically from a worker process) into this
        registry: counters and histograms add, gauges keep the max."""
        for row in snapshot.get("counters", ()):
            self.counter(row["name"], **row["labels"]).inc(row["value"])
        for row in snapshot.get("gauges", ()):
            gauge = self.gauge(row["name"], **row["labels"])
            with self._lock:
                gauge.value = max(gauge.value, row["value"])
        for row in snapshot.get("histograms", ()):
            hist = self.histogram(
                row["name"], buckets=tuple(row["buckets"]), **row["labels"]
            )
            if list(hist.buckets) != list(row["buckets"]):
                raise ValueError(
                    f"histogram {row['name']!r} bucket mismatch: "
                    f"{hist.buckets} vs {row['buckets']}"
                )
            with self._lock:
                for i, n in enumerate(row["bucket_counts"]):
                    hist.bucket_counts[i] += n
                hist.count += row["count"]
                hist.sum += row["sum"]
                for bound, pick in (("min", min), ("max", max)):
                    incoming = row[bound]
                    if incoming is not None:
                        current = getattr(hist, bound)
                        setattr(
                            hist, bound,
                            incoming if current is None else pick(current, incoming),
                        )

    # -------------------------------------------------------------- reporting
    def rows(self) -> list[dict[str, object]]:
        """Flat rows (kind/name/labels/value) for table rendering."""
        snap = self.snapshot()
        rows: list[dict[str, object]] = []
        for row in snap["counters"]:
            rows.append({"kind": "counter", "name": row["name"],
                         "labels": _format_labels(row["labels"]), "value": row["value"]})
        for row in snap["gauges"]:
            rows.append({"kind": "gauge", "name": row["name"],
                         "labels": _format_labels(row["labels"]), "value": row["value"]})
        for row in snap["histograms"]:
            rows.append({
                "kind": "histogram", "name": row["name"],
                "labels": _format_labels(row["labels"]),
                "value": f"count={row['count']} mean="
                         f"{(row['sum'] / row['count']) if row['count'] else 0.0:.3g} "
                         f"min={row['min']} max={row['max']}",
            })
        rows.sort(key=lambda r: (str(r["name"]), str(r["labels"])))
        return rows


def _format_labels(labels: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


_GLOBAL = MetricsRegistry()
_ACTIVE = threading.local()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL


def active_registry() -> MetricsRegistry:
    """The registry instrumented code should write to.

    Defaults to :func:`global_registry`; :func:`use_registry` swaps it for the
    current thread (pool workers isolate per-task snapshots this way, and a
    serial sweep installs the caller's registry).
    """
    return getattr(_ACTIVE, "registry", None) or _GLOBAL


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily make ``registry`` the :func:`active_registry`."""
    previous = getattr(_ACTIVE, "registry", None)
    # _ACTIVE is a threading.local: each thread (and each forked worker)
    # sees its own slot, so this swap cannot race across the pool.
    _ACTIVE.registry = registry  # repro-lint: disable=REP005 -- thread-local
    try:
        yield registry
    finally:
        _ACTIVE.registry = previous  # repro-lint: disable=REP005 -- thread-local
