"""Module-scope sweep cell evaluators for process pools.

Large sweeps (Figure 4 at fine granularity, Table 1 matrices) decompose
perfectly across processes — each (N, d) cell is independent.  The runner
lives in :mod:`repro.exec.executor`
(:class:`~repro.exec.executor.SweepExecutor`), which adds per-worker payload
shipping and graceful serial degradation; this module keeps the
module-level cell evaluators the Figure 4 path uses (module scope so they
pickle under ``spawn`` as well as ``fork``).  The v1 ``parallel_sweep``
wrapper was removed in v2.0 — construct a ``SweepExecutor`` directly, or
use ``repro.run(ExperimentSpec(kind="sweep", ...))`` for replay sweeps.

Instrumentation reaches the caller's registry either way: a serial map
runs each cell with that registry as :func:`~repro.obs.active_registry`,
and a pool worker runs each cell against a fresh
:class:`~repro.obs.MetricsRegistry` whose picklable snapshot rides back
and merges into it — so worker counters (cells evaluated, delay
histograms) aggregate exactly as if the sweep had run in-process.
"""

from __future__ import annotations

from repro.exec.executor import default_workers
from repro.obs.registry import active_registry

__all__ = ["multi_tree_cell", "cascade_cell", "default_workers"]


def multi_tree_cell(task: tuple[int, int]) -> tuple[int, int, int]:
    """Worker: worst-case multi-tree delay for one ``(N, d)`` cell."""
    n, d = task
    from repro.trees.vectorized import worst_case_delay_fast

    delay = worst_case_delay_fast(n, d)
    registry = active_registry()
    registry.counter("sweep.cells", scheme="multi-tree", degree=str(d)).inc()
    registry.histogram("sweep.delay", scheme="multi-tree", degree=str(d)).observe(delay)
    return n, d, delay


def cascade_cell(task: tuple[int]) -> tuple[int, int, float]:
    """Worker: hypercube cascade worst/average delay for one ``N``."""
    (n,) = task
    from repro.hypercube.cascade import expected_average_delay, expected_worst_delay

    worst = expected_worst_delay(n)
    registry = active_registry()
    registry.counter("sweep.cells", scheme="hypercube-cascade").inc()
    registry.histogram("sweep.delay", scheme="hypercube-cascade").observe(worst)
    return n, worst, expected_average_delay(n)
