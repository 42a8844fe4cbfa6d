"""Compiled-schedule execution layer: compiler, cache, replay, sweep executor.

The schedules of the paper's schemes are deterministic per configuration;
this subpackage compiles them once into flat arrays
(:mod:`repro.exec.compiler`), caches the result content-addressed in memory
and optionally on disk (:mod:`repro.exec.cache`), replays them without the
engine for sweep workers (:mod:`repro.exec.replay`), scores whole batches
of sessions per pass with the vectorized NumPy kernel
(:mod:`repro.exec.batch` — the v2 execution primitive), and fans grids
out across processes with per-worker payload shipping (:mod:`repro.exec.executor`).  The unified experiment
facade (:mod:`repro.experiments`) builds on all five.
"""

from repro.exec.batch import (
    BatchMetrics,
    bernoulli_masks,
    replay_batch,
    spawn_seeds,
)
from repro.exec.cache import CACHE_VERSION, ScheduleCache, ScheduleKey, default_cache
from repro.exec.compiler import (
    COMPILABLE_SCHEMES,
    CompiledSchedule,
    build_protocol,
    compile_protocol,
    compile_schedule,
)
from repro.exec.executor import (
    ExecutorPolicy,
    SweepExecutor,
    default_workers,
    replay_batch_task,
    worker_payload,
)
from repro.exec.replay import bernoulli_mask, replay_arrivals

__all__ = [
    "CACHE_VERSION",
    "COMPILABLE_SCHEMES",
    "BatchMetrics",
    "CompiledSchedule",
    "ExecutorPolicy",
    "ScheduleCache",
    "ScheduleKey",
    "SweepExecutor",
    "bernoulli_mask",
    "bernoulli_masks",
    "build_protocol",
    "compile_protocol",
    "compile_schedule",
    "default_cache",
    "default_workers",
    "replay_arrivals",
    "replay_batch",
    "replay_batch_task",
    "spawn_seeds",
    "worker_payload",
]
