"""Sweep executor: determinism across serial/parallel, fallback, task
errors, policy."""

from __future__ import annotations

import pytest

from repro.core.errors import ReproError
from repro.exec.cache import ScheduleCache
from repro.exec.compiler import compile_schedule
from repro.exec.executor import (
    ExecutorPolicy,
    SweepExecutor,
    replay_batch_task,
    worker_payload,
)
from repro.obs import MetricsRegistry


def _schedule(n=31, d=2, packets=10):
    return compile_schedule("multi-tree", n, d, num_packets=packets, cache=ScheduleCache())


def _grid(packets=10):
    """Four blocks of two seeds each, at two drop rates."""
    return [
        (seeds, rate, packets)
        for rate in (0.0, 0.05) for seeds in ((0, 1), (2, 3))
    ]


def _sessions(registry):
    return sum(
        row["value"]
        for row in registry.snapshot()["counters"]
        if row["name"] == "sweep.batch_sessions"
    )


def double_task(task):
    (x,) = task
    return x * 2


def payload_echo_task(task):
    return (task, worker_payload())


def failing_task(task):
    (x,) = task
    if x == 3:
        raise ReproError(f"task {x} is broken")
    return x


def span_recording_task(task):
    from repro.obs.spans import worker_span

    (x,) = task
    with worker_span("task.run", x=x):
        return x


class TestPolicy:
    def test_invalid_workers(self):
        with pytest.raises(ReproError):
            ExecutorPolicy(max_workers=0)

    def test_invalid_chunksize(self):
        with pytest.raises(ReproError):
            ExecutorPolicy(chunksize=0)

    def test_invalid_mode(self):
        with pytest.raises(ReproError):
            ExecutorPolicy(mode="sometimes")

    def test_resolved_workers_positive(self):
        assert ExecutorPolicy().resolved_workers() >= 1
        assert ExecutorPolicy(max_workers=7).resolved_workers() == 7


class TestSerialParallelEquality:
    def test_rows_identical_for_fixed_grid(self):
        schedule = _schedule()
        serial = SweepExecutor(ExecutorPolicy(mode="serial")).map(
            replay_batch_task, _grid(), payload=schedule
        )
        parallel = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2, chunksize=2)
        ).map(replay_batch_task, _grid(), payload=schedule)
        assert serial == parallel
        rows = [row for block in serial for row in block]
        assert [r["seed"] for r in rows] == [s for _ in (0.0, 0.05) for s in range(4)]

    def test_registry_snapshots_identical(self):
        schedule = _schedule()
        serial_reg, parallel_reg = MetricsRegistry(), MetricsRegistry()
        a = SweepExecutor(ExecutorPolicy(mode="serial"), registry=serial_reg).map(
            replay_batch_task, _grid(), payload=schedule
        )
        b = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2), registry=parallel_reg
        ).map(replay_batch_task, _grid(), payload=schedule)
        assert a == b
        assert serial_reg.snapshot() == parallel_reg.snapshot()
        assert _sessions(serial_reg) == 2 * len(_grid())


class TestExecutionPaths:
    def test_empty_grid(self):
        executor = SweepExecutor()
        assert executor.map(double_task, []) == []
        assert executor.last_run["mode"] == "empty"

    def test_auto_short_circuits_tiny_grids(self):
        executor = SweepExecutor(ExecutorPolicy(max_workers=4))
        assert executor.map(double_task, [(1,), (2,)]) == [2, 4]
        assert executor.last_run["mode"] == "serial"

    def test_payload_reaches_serial_workers(self):
        results = SweepExecutor(ExecutorPolicy(mode="serial")).map(
            payload_echo_task, [(1,), (2,)], payload="the-payload"
        )
        assert results == [((1,), "the-payload"), ((2,), "the-payload")]
        assert worker_payload() is None  # restored after the run

    def test_unpicklable_payload_falls_back_to_serial(self):
        registry = MetricsRegistry()
        executor = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2), registry=registry
        )
        unpicklable = lambda: None  # noqa: E731 - deliberately unpicklable
        results = executor.map(
            payload_echo_task, [(i,) for i in range(5)], payload=unpicklable
        )
        assert [task for task, payload in results] == [(i,) for i in range(5)]
        assert all(payload is unpicklable for _, payload in results)
        assert executor.last_run["mode"] == "serial"
        assert executor.last_run["fallback"] is True

    def test_fallback_logs_error_through_registry(self):
        registry = MetricsRegistry()
        executor = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2), registry=registry
        )
        executor.map(
            payload_echo_task, [(i,) for i in range(5)], payload=lambda: None
        )
        error = executor.last_run["fallback_error"]
        assert ": " in error  # "<ExceptionType>: <message>"
        rows = registry.rows()
        assert any(
            row["name"] == "executor.fallbacks" and row["value"] == 1
            for row in rows
        )
        assert any(
            row["name"] == "executor.fallback_errors"
            and row["labels"].startswith("error=")
            and row["value"] == 1
            for row in rows
        )

    def test_clean_run_has_no_fallback_error(self):
        executor = SweepExecutor(ExecutorPolicy(mode="serial"))
        executor.map(double_task, [(1,), (2,)])
        assert "fallback_error" not in executor.last_run

    def test_parallel_mode_records_workers(self):
        executor = SweepExecutor(ExecutorPolicy(mode="parallel", max_workers=2))
        results = executor.map(double_task, [(i,) for i in range(6)])
        assert results == [0, 2, 4, 6, 8, 10]
        assert executor.last_run == {
            "mode": "parallel", "workers": 2, "fallback": False, "tasks": 6,
        }


class TestStreamingResults:
    def test_on_result_in_task_order(self):
        seen = []
        executor = SweepExecutor(ExecutorPolicy(mode="parallel", max_workers=2))
        results = executor.map(
            double_task, [(i,) for i in range(8)],
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert seen == [(i, 2 * i) for i in range(8)]
        assert results == [2 * i for i in range(8)]

    def test_collect_false_returns_empty(self):
        seen = []
        executor = SweepExecutor(ExecutorPolicy(mode="serial"))
        results = executor.map(
            double_task, [(i,) for i in range(5)],
            on_result=lambda index, result: seen.append(result),
            collect=False,
        )
        assert results == []
        assert seen == [0, 2, 4, 6, 8]
        assert executor.last_run["tasks"] == 5

    def test_snapshots_merged_before_callback(self):
        registry = MetricsRegistry()
        schedule = _schedule()
        merged_at_callback = []

        def on_result(index, result):
            merged_at_callback.append(_sessions(registry))

        SweepExecutor(ExecutorPolicy(mode="serial"), registry=registry).map(
            replay_batch_task, _grid(), payload=schedule,
            on_result=on_result, collect=False,
        )
        # By the time the callback sees task i, i+1 snapshots (two
        # sessions each) are merged.
        assert merged_at_callback == [2 * i for i in range(1, len(_grid()) + 1)]

    def test_fallback_never_duplicates_callbacks(self):
        registry = MetricsRegistry()
        executor = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2), registry=registry
        )
        seen = []
        executor.map(
            payload_echo_task, [(i,) for i in range(6)],
            payload=lambda: None,  # unpicklable: pool breaks, serial finishes
            on_result=lambda index, result: seen.append(index),
            collect=False,
        )
        assert executor.last_run["fallback"] is True
        assert seen == list(range(6))  # each task delivered exactly once


class TestTaskErrors:
    """A task's own exception is not a pool failure: it surfaces at once."""

    def test_parallel_task_error_raises_without_fallback(self):
        registry = MetricsRegistry()
        executor = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2, chunksize=1),
            registry=registry,
        )
        seen = []
        with pytest.raises(ReproError, match="task 3 is broken"):
            executor.map(
                failing_task, [(i,) for i in range(8)],
                on_result=lambda index, result: seen.append(index),
            )
        names = {row["name"] for row in registry.snapshot()["counters"]}
        assert "executor.fallbacks" not in names
        assert "executor.fallback_errors" not in names
        assert seen == [0, 1, 2]  # nothing past the failing task is folded

    def test_serial_task_error_raises(self):
        executor = SweepExecutor(ExecutorPolicy(mode="serial"))
        with pytest.raises(ReproError, match="task 3 is broken"):
            executor.map(failing_task, [(i,) for i in range(8)])


class TestWorkerSpanAdoption:
    def test_spans_ride_back_on_snapshots(self):
        from repro.obs.spans import SpanTracer

        registry = MetricsRegistry()
        tracer = SpanTracer(trace_id="sweep")
        executor = SweepExecutor(
            ExecutorPolicy(mode="serial"), registry=registry, spans=tracer
        )
        with tracer.span("sweep.execute"):
            executor.map(span_recording_task, [(i,) for i in range(3)])
        names = [span.name for span in tracer.finished]
        assert names.count("task.run") == 3
        assert "sweep.execute" in names
        assert all(span.trace_id == "sweep" for span in tracer.finished)
        # Worker spans parent to the span that was open at map() time.
        parent = next(s for s in tracer.finished if s.name == "sweep.execute")
        adopted = [s for s in tracer.finished if s.name == "task.run"]
        assert all(s.parent_id == parent.span_id for s in adopted)
        assert [s.attrs["x"] for s in adopted] == [0, 1, 2]


class TestReplaySweepTask:
    """The one sweep task, :func:`replay_batch_task`."""

    def test_requires_payload(self):
        with pytest.raises(ReproError):
            replay_batch_task(((0,), 0.0, 5))

    def test_lossfree_point_matches_paper_metrics(self):
        from repro.core.engine import simulate
        from repro.core.metrics import collect_metrics
        from repro.exec.compiler import build_protocol
        from repro.exec.executor import _init_worker

        schedule = _schedule(n=15, d=3, packets=8)
        _init_worker(schedule)
        try:
            (row,) = replay_batch_task(((0,), 0.0, 8))
        finally:
            _init_worker(None)
        protocol = build_protocol("multi-tree", 15, 3)
        trace = simulate(protocol, protocol.slots_for_packets(8))
        paper = collect_metrics(trace, num_packets=8)
        assert row["residual"] == 0
        assert row["max_delay"] == paper.max_startup_delay
        assert row["max_buffer"] == paper.max_buffer
