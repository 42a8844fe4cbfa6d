"""Process-pool sweep execution through :class:`SweepExecutor`.

The v1 ``parallel_sweep`` wrapper was removed in v2.0, and the module-level
Figure 4 cell evaluators (``repro.workloads.parallel``) in v12.0, when
``repro figure4`` began calling the vectorized sweep in-process.  The
executor semantics (order-preserving, registry snapshot merging, serial
fallback) are checked here with a module-level worker defined below.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ReproError
from repro.exec import default_workers
from repro.exec.executor import ExecutorPolicy, SweepExecutor
from repro.obs import MetricsRegistry, active_registry
from repro.trees.vectorized import worst_case_delay_fast


def delay_cell(task: tuple[int, int]) -> tuple[int, int, int]:
    """Worker: worst-case multi-tree delay for one ``(N, d)`` cell, counted
    and observed on the active registry."""
    n, d = task
    delay = worst_case_delay_fast(n, d)
    registry = active_registry()
    registry.counter("test.cells", degree=str(d)).inc()
    registry.histogram("test.delay", degree=str(d)).observe(delay)
    return n, d, delay


def sweep(worker, tasks, *, max_workers=None, registry=None):
    policy = ExecutorPolicy(max_workers=max_workers)
    return SweepExecutor(policy, registry=registry).map(worker, tasks)


class TestCells:
    def test_multi_tree_cell(self):
        from repro.trees.analysis import worst_case_delay
        from repro.trees.forest import MultiTreeForest
        from repro.trees.vectorized import figure4_series_fast

        series = figure4_series_fast([100], [3])
        assert series == {
            "degree 3": [worst_case_delay(MultiTreeForest.construct(100, 3))]
        }

    def test_cascade_cell(self):
        from repro.hypercube.cascade import expected_average_delay, expected_worst_delay

        assert expected_average_delay(50) <= expected_worst_delay(50)

    def test_parallel_sweep_wrapper_removed(self):
        with pytest.raises(ImportError):
            from repro.workloads.parallel import parallel_sweep  # noqa: F401


class TestRunner:
    def test_empty_tasks(self):
        assert sweep(delay_cell, []) == []

    def test_serial_path(self):
        results = sweep(delay_cell, [(20, 2), (20, 3)], max_workers=1)
        assert [r[:2] for r in results] == [(20, 2), (20, 3)]

    def test_parallel_matches_serial(self):
        tasks = [(n, d) for n in (20, 50, 90, 130) for d in (2, 3)]
        serial = sweep(delay_cell, tasks, max_workers=1)
        parallel = sweep(delay_cell, tasks, max_workers=2)
        assert serial == parallel  # order-preserving and identical

    def test_registry_merges_worker_snapshots(self):
        tasks = [(20, 2), (20, 3), (50, 2), (50, 3)]
        registry = MetricsRegistry()
        results = sweep(delay_cell, tasks, max_workers=2, registry=registry)
        assert len(results) == len(tasks)
        cells = sum(
            row["value"]
            for row in registry.snapshot()["counters"]
            if row["name"] == "test.cells"
        )
        assert cells == len(tasks)
        hist = registry.histogram("test.delay", degree="2")
        assert hist.count == 2  # one observation per degree-2 cell

    def test_registry_merge_matches_serial(self):
        tasks = [(20, 2), (30, 2), (40, 2), (50, 2)]
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        a = sweep(delay_cell, tasks, max_workers=1, registry=serial)
        b = sweep(delay_cell, tasks, max_workers=2, registry=parallel)
        assert a == b
        assert serial.snapshot() == parallel.snapshot()

    def test_no_registry_means_raw_results(self):
        results = sweep(delay_cell, [(20, 2)], max_workers=1)
        assert results == [(20, 2, results[0][2])]

    def test_invalid_workers(self):
        with pytest.raises(ReproError):
            sweep(delay_cell, [(5, 2), (6, 2), (7, 2)], max_workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1
