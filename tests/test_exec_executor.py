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


#: Task indices :func:`counting_task` ran, in call order (in-process only).
CALLS: list[int] = []


def counting_task(task):
    from repro.obs import active_registry

    (x,) = task
    CALLS.append(x)
    active_registry().counter("test.tasks").inc()
    return x


def sleeping_pid_task(task):
    import os
    import time

    time.sleep(0.5)
    return os.getpid()


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
        # Removed in v15.0.0: the pool hands out one task at a time.
        with pytest.raises(TypeError):
            ExecutorPolicy(chunksize=1)

    def test_invalid_mode(self):
        with pytest.raises(ReproError):
            ExecutorPolicy(mode="sometimes")

    def test_resolved_workers_positive(self):
        assert ExecutorPolicy().resolved_workers() >= 1
        assert ExecutorPolicy(max_workers=7).resolved_workers() == 7

    def test_serial_policy_has_one_worker(self, monkeypatch):
        def no_core_count():
            raise AssertionError("a serial policy read the host's core count")

        monkeypatch.setattr("os.cpu_count", no_core_count)
        assert ExecutorPolicy(mode="serial").resolved_workers() == 1
        assert ExecutorPolicy(mode="serial", max_workers=7).resolved_workers() == 1
        executor = SweepExecutor(ExecutorPolicy(mode="serial"))
        assert executor.map(double_task, [(i,) for i in range(5)]) == [0, 2, 4, 6, 8]
        assert executor.last_run["workers"] == 1

    def test_each_worker_takes_one_task_at_a_time(self):
        # Callers cut one task per worker, so a pool that batched two tasks
        # into one hand-out would leave the other worker idle.
        executor = SweepExecutor(ExecutorPolicy(mode="parallel", max_workers=2))
        pids = executor.map(sleeping_pid_task, [(0,), (1,)])
        assert executor.last_run["mode"] == "parallel"
        assert len(set(pids)) == 2


class TestSerialParallelEquality:
    def test_rows_identical_for_fixed_grid(self):
        schedule = _schedule()
        serial = SweepExecutor(ExecutorPolicy(mode="serial")).map(
            replay_batch_task, _grid(), payload=schedule
        )
        parallel = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2)
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


class TestOneRegistry:
    """A serial map writes into the caller's registry: no per-task registry,
    snapshot or merge."""

    @pytest.fixture
    def no_snapshots(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a serial map snapshotted or merged a registry")

        monkeypatch.setattr(MetricsRegistry, "snapshot", forbidden)
        monkeypatch.setattr(MetricsRegistry, "merge", forbidden)
        monkeypatch.setattr("repro.exec.executor._snapshotting_task", forbidden)

    @pytest.mark.parametrize("passed", [True, False], ids=["passed", "active"])
    def test_serial_tasks_write_into_the_callers_registry(self, no_snapshots, passed):
        from repro.obs import use_registry

        registry = MetricsRegistry()
        executor = SweepExecutor(
            ExecutorPolicy(mode="serial"), registry=registry if passed else None
        )
        seen = []
        # A passed registry wins over the active one.
        with use_registry(MetricsRegistry() if passed else registry):
            executor.map(
                counting_task, [(i,) for i in range(4)],
                on_result=lambda index, result: seen.append(
                    registry.counter("test.tasks").value
                ),
            )
        # Each task's metrics are in the registry before its callback.
        assert seen == [1, 2, 3, 4]


class TestPoolFailureFallback:
    """A pool that breaks after ``k`` tasks: the serial fallback resumes at
    task ``k`` and runs no processed task again."""

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_fallback_resumes_at_first_unprocessed_task(self, monkeypatch, k):
        from repro.exec.executor import _snapshotting_task

        def breaks_after_k(self, worker, items, payload, workers, process):
            for index in range(k):
                result, snapshot = _snapshotting_task(worker, items[index])
                self.registry.merge(snapshot)
                process(index, result)
            raise OSError("the pool broke")

        monkeypatch.setattr(SweepExecutor, "_run_parallel", breaks_after_k)
        CALLS.clear()
        registry = MetricsRegistry()
        executor = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2), registry=registry
        )
        seen = []
        results = executor.map(
            counting_task, [(i,) for i in range(6)],
            on_result=lambda index, result: seen.append(index),
        )
        assert results == list(range(6))
        assert seen == list(range(6))  # on_result once per index
        assert CALLS == list(range(6))  # every task ran exactly once
        assert registry.counter("test.tasks").value == 6
        assert registry.counter("executor.fallbacks").value == 1
        assert executor.last_run["fallback"] is True
        assert executor.last_run["fallback_error"] == "OSError: the pool broke"


class TestTaskErrors:
    """A task's own exception is not a pool failure: it surfaces at once."""

    def test_parallel_task_error_raises_without_fallback(self):
        registry = MetricsRegistry()
        executor = SweepExecutor(
            ExecutorPolicy(mode="parallel", max_workers=2),
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


    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    @pytest.mark.parametrize("with_registry", [True, False], ids=["registry", "no-registry"])
    def test_every_mode_adopts_every_span(self, mode, with_registry):
        # A parallel map used to ship spans only on registry snapshots, so
        # without a registry it adopted none of them.
        from repro.obs.spans import SpanTracer

        registry = MetricsRegistry() if with_registry else None
        tracer = SpanTracer()
        executor = SweepExecutor(
            ExecutorPolicy(mode=mode, max_workers=2), registry=registry, spans=tracer
        )
        executor.map(span_recording_task, [(i,) for i in range(6)])
        assert executor.last_run["mode"] == mode
        adopted = [s for s in tracer.finished if s.name == "task.run"]
        assert sorted(s.attrs["x"] for s in adopted) == list(range(6))


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
