"""Process-parallel sweep executor with per-worker payload shipping.

:class:`SweepExecutor` generalizes the PR-2 ``parallel_sweep`` runner:

* a picklable **payload** (typically a compiled schedule) is shipped once per
  worker through the pool initializer instead of once per task;
* every task runs against an isolated :class:`~repro.obs.MetricsRegistry`
  whose snapshot rides back with the result and is merged into the caller's
  registry — metrics aggregate exactly as in a serial run;
* task order is preserved and per-task seeds travel inside the task tuples,
  so a grid is deterministic regardless of worker count;
* results can be **streamed**: ``map(..., on_result=fn, collect=False)``
  invokes ``fn(index, result)`` as each task completes *in task order* and
  never materializes the result list — the fleet runner folds 10k+ session
  SLOs into quantile sketches this way with bounded memory;
* a :class:`~repro.obs.spans.SpanTracer` handed to the executor ships its
  span context to workers through the initializer; spans recorded with
  :func:`~repro.obs.spans.worker_span` ride back on the snapshots and are
  adopted into the parent trace;
* a pool-level failure (broken workers, unpicklable payloads, fork limits)
  **degrades gracefully to the serial path** — the sweep completes either
  way (tasks already processed before the pool broke are not re-delivered
  to ``on_result`` or re-merged), and the fallback is visible as
  ``executor.fallbacks`` plus an
  ``executor.fallback_errors{error=<ExceptionType>}`` counter on the active
  registry (the formatted exception also lands in ``last_run``);
* an exception raised by the task function itself is not a pool failure:
  the worker returns it tagged, and the parent re-raises it at once,
  exactly as the serial path would, with no fallback recorded.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.core.errors import ReproError
from repro.obs.registry import MetricsRegistry, active_registry, use_registry
from repro.obs.spans import SpanTracer, drain_worker_spans, install_span_context

__all__ = [
    "ExecutorPolicy",
    "SweepExecutor",
    "worker_payload",
    "default_workers",
    "replay_batch_task",
]


def default_workers() -> int:
    """A conservative worker count (leave one core for the parent)."""
    return max(1, (os.cpu_count() or 2) - 1)


@dataclass(frozen=True, slots=True)
class ExecutorPolicy:
    """How a sweep fans out.

    Attributes:
        max_workers: process count (None = cores - 1).
        chunksize: tasks per IPC batch.
        mode: ``auto`` (parallel unless the grid is tiny or one worker is
            requested), ``serial`` (never fork), or ``parallel`` (always try
            the pool first).
    """

    max_workers: int | None = None
    chunksize: int = 4
    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.chunksize < 1:
            raise ReproError(f"chunksize must be >= 1, got {self.chunksize}")
        if self.mode not in ("auto", "serial", "parallel"):
            raise ReproError(
                f"executor mode must be auto/serial/parallel, got {self.mode!r}"
            )

    def resolved_workers(self) -> int:
        return self.max_workers or default_workers()


# Per-process payload installed by the pool initializer (or the serial path).
_PAYLOAD: Any = None


def _init_worker(payload: Any, span_context: dict | None = None) -> None:
    global _PAYLOAD
    # Installing the payload is the initializer's whole job: the slot is
    # written once per worker process, before any task runs.
    _PAYLOAD = payload  # repro-lint: disable=REP005 -- per-process init slot
    install_span_context(span_context)


def worker_payload() -> Any:
    """The payload shipped to this worker (None outside an executor run)."""
    return _PAYLOAD


def _snapshotting_task(worker: Callable[[Any], Any], task: Any) -> tuple[Any, dict]:
    """Run one task against a fresh registry.

    Returns ``(result, snapshot)`` where the snapshot also carries any spans
    recorded via :func:`~repro.obs.spans.worker_span` during the task.
    ``MetricsRegistry.merge`` ignores the extra key, so it rides along for
    free.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        result = worker(task)
    snapshot = registry.snapshot()
    spans = drain_worker_spans()
    if spans:
        snapshot["spans"] = spans
    return result, snapshot


class _TaskFailed(Exception):
    """A task function's exception, *returned* by :func:`_tagged_task`.

    Returning it keeps a task error apart from a pool failure: the pool
    delivers it like any result, and the parent re-raises the original.
    """


def _tagged_task(worker: Callable[[Any], Any], task: Any) -> Any:
    """Pool-side wrapper: ``worker(task)``, or its exception tagged."""
    try:
        return worker(task)
    except Exception as exc:
        return _TaskFailed(exc)


class SweepExecutor:
    """Order-preserving map over a task grid, across processes when useful.

    Args:
        policy: fan-out policy (worker count, chunk size, mode).
        registry: when given, worker metric snapshots are merged into it;
            None skips all snapshotting.
        spans: when given, the tracer's span context is shipped to workers
            and spans they record are adopted into this trace.
    """

    def __init__(
        self,
        policy: ExecutorPolicy | None = None,
        *,
        registry: MetricsRegistry | None = None,
        spans: SpanTracer | None = None,
    ) -> None:
        self.policy = policy if policy is not None else ExecutorPolicy()
        self.registry = registry
        self.spans = spans
        #: Filled by :meth:`map`: how the last sweep actually executed.
        self.last_run: dict[str, object] = {}

    # ------------------------------------------------------------------ paths
    def _run_serial(
        self,
        run: Callable[[Any], Any],
        items: Sequence[Any],
        payload: Any,
        process: Callable[[int, Any], None],
        start: int = 0,
    ) -> None:
        global _PAYLOAD
        previous = _PAYLOAD
        # The serial path plays the pool initializer in this process, and
        # restores the slot on the way out.
        _PAYLOAD = payload  # repro-lint: disable=REP005 -- per-process init slot
        if self.spans is not None:
            install_span_context(self.spans.context())
        try:
            for index, item in enumerate(items):
                raw = run(item)
                if index >= start:
                    process(index, raw)
        finally:
            if self.spans is not None:
                install_span_context(None)
            _PAYLOAD = previous  # repro-lint: disable=REP005 -- per-process init slot

    def _run_parallel(
        self,
        run: Callable[[Any], Any],
        items: Sequence[Any],
        payload: Any,
        workers: int,
        process: Callable[[int, Any], None],
    ) -> None:
        span_context = self.spans.context() if self.spans is not None else None
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(payload, span_context),
        ) as pool:
            stream = pool.map(
                partial(_tagged_task, run), items, chunksize=self.policy.chunksize
            )
            for index, raw in enumerate(stream):
                if isinstance(raw, _TaskFailed):
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise raw
                process(index, raw)

    # -------------------------------------------------------------------- api
    def map(
        self,
        worker: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        payload: Any = None,
        on_result: Callable[[int, Any], None] | None = None,
        collect: bool = True,
    ) -> list[Any]:
        """Evaluate ``worker`` over ``tasks``; results keep task order.

        Args:
            worker: module-level function of one task tuple (module-level so
                it pickles under ``spawn`` as well as ``fork``).
            tasks: iterable of picklable task tuples.
            payload: optional picklable object made available to every task
                via :func:`worker_payload` — shipped once per worker.
            on_result: streaming callback invoked as ``on_result(index,
                result)`` for each task, in task order, as results arrive —
                snapshots are merged *before* the callback sees the result.
            collect: when False, results are not retained and :meth:`map`
                returns ``[]`` — combine with ``on_result`` for
                bounded-memory aggregation over huge grids.
        """
        tasks = list(tasks)
        if not tasks:
            self.last_run = {"mode": "empty", "workers": 0, "fallback": False}
            return []
        policy = self.policy
        workers = policy.resolved_workers()
        serial = (
            policy.mode == "serial"
            or (policy.mode == "auto" and (workers == 1 or len(tasks) <= 2))
        )
        merge_registry = self.registry
        run: Callable[[Any], Any] = (
            partial(_snapshotting_task, worker)
            if merge_registry is not None else worker
        )
        results: list[Any] = []
        state = {"done": 0}

        def process(index: int, raw: Any) -> None:
            if merge_registry is not None:
                result, snapshot = raw
                merge_registry.merge(snapshot)
                if self.spans is not None and snapshot.get("spans"):
                    self.spans.adopt(snapshot["spans"])
            else:
                result = raw
            if on_result is not None:
                on_result(index, result)
            if collect:
                results.append(result)
            state["done"] += 1

        fallback = False
        if serial:
            self._run_serial(run, tasks, payload, process)
            mode = "serial"
        else:
            try:
                self._run_parallel(run, tasks, payload, workers, process)
                mode = "parallel"
            except _TaskFailed as failed:
                # The task itself raised: the pool is fine, so fail fast
                # with the task's own exception, as the serial path would.
                raise failed.args[0] from None
            except Exception as exc:
                # Pool infrastructure failed (broken worker, unpicklable
                # payload, no fork available): finish the sweep serially,
                # and log what broke the pool through the registry so the
                # degradation is diagnosable, not silent.  Tasks processed
                # before the break are re-run (tasks are pure) but NOT
                # re-processed — no duplicate merges or callbacks.
                registry = (
                    self.registry if self.registry is not None else active_registry()
                )
                registry.counter("executor.fallbacks").inc()
                registry.counter(
                    "executor.fallback_errors", error=type(exc).__name__
                ).inc()
                fallback = True
                fallback_error = f"{type(exc).__name__}: {exc}"
                self._run_serial(run, tasks, payload, process, start=state["done"])
                mode = "serial"
        self.last_run = {
            "mode": mode,
            "workers": workers if mode == "parallel" else 1,
            "fallback": fallback,
            "tasks": len(tasks),
        }
        if fallback:
            self.last_run["fallback_error"] = fallback_error
        return results


def replay_batch_task(
    task: tuple[tuple[int, ...], float, int]
) -> list[dict[str, Any]]:
    """Sweep worker: one vectorized kernel call over a block of seeds.

    Task tuple: ``(seeds, drop_rate, num_packets)`` — every seed in the
    block replays the payload schedule at the same rate in one
    :func:`~repro.exec.batch.replay_batch` pass.  Returns the block's flat
    metrics rows (``seed``, ``drop_rate``, the metrics columns), in seed
    order, so results are picklable and table-ready.
    """
    from repro.exec.batch import replay_batch

    schedule = worker_payload()
    if schedule is None:
        raise ReproError("replay_batch_task needs a CompiledSchedule payload")
    seeds, drop_rate, num_packets = task
    batch = replay_batch(
        schedule,
        seeds,
        drop_rate,
        num_packets=num_packets,
        keep_node_columns=False,
    )
    return batch.rows()
