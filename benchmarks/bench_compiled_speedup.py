"""Compiled-schedule sweep speedup: 32-point seed sweep at N=1023, d=2.

The pre-compiler serial path re-ran the full object-based simulation
(scheduling + validation + delivery) once per sweep point even though every
loss-free point of a seed sweep replays the identical timetable.  The
execution layer compiles the schedule once (content-addressed cache) and
replays the flat arrays per point, so the per-point cost drops from a full
engine run to a kernel pass.  This bench times both paths on the same grid
and asserts the >= 3x acceptance floor; the measured metrics rows must agree
point-for-point, so the speedup is not bought with different answers.  The
result file states the bound; the measured times appear only in the assert
message.
"""

from __future__ import annotations

from conftest import report

from repro.core.engine import simulate
from repro.core.metrics import collect_repair_metrics
from repro.exec.cache import ScheduleCache
from repro.exec.compiler import build_protocol, compile_schedule
from repro.exec.executor import ExecutorPolicy, SweepExecutor, replay_batch_task
from repro.obs import Timer

NUM_NODES = 1023
DEGREE = 2
NUM_PACKETS = 4
SEEDS = range(32)
MIN_SPEEDUP = 3.0


def _baseline_point(seed: int) -> dict:
    """One pre-compiler sweep point: fresh protocol, full engine run."""
    protocol = build_protocol("multi-tree", NUM_NODES, DEGREE)
    num_slots = protocol.slots_for_packets(NUM_PACKETS)
    trace = simulate(protocol, num_slots)
    metrics = collect_repair_metrics(
        trace.all_arrivals(), num_packets=NUM_PACKETS, num_slots=num_slots
    )
    return {"seed": seed, "drop_rate": 0.0, **metrics.row()}


def test_compiled_sweep_speedup():
    # One sweep task per seed point, as the object path runs one engine
    # per point.
    grid = [((seed,), 0.0, NUM_PACKETS) for seed in SEEDS]

    with Timer() as baseline_timer:
        baseline_rows = [_baseline_point(seed) for (seed,), _, _ in grid]

    with Timer() as compiled_timer:
        schedule = compile_schedule(
            "multi-tree", NUM_NODES, DEGREE,
            num_packets=NUM_PACKETS, cache=ScheduleCache(),
        )
        executor = SweepExecutor(ExecutorPolicy(mode="serial"))
        blocks = executor.map(replay_batch_task, grid, payload=schedule)
    compiled_rows = [row for block in blocks for row in block]

    assert compiled_rows == baseline_rows, "compiled sweep changed the answers"
    speedup = baseline_timer.elapsed / compiled_timer.elapsed

    lines = [
        f"compiled-schedule sweep speedup (N={NUM_NODES}, d={DEGREE}, "
        f"P={NUM_PACKETS}, {len(grid)} seed points, serial executor):",
        "",
        "  baseline: object path per point (fresh protocol, full engine run)",
        "  compiled: compile once, then one replay_batch_task per point",
        f"  asserted: compiled >= {MIN_SPEEDUP:.0f}x faster than baseline",
        f"  schedule: {schedule.size} transmissions over {schedule.num_slots} slots",
        "  metrics rows identical point-for-point: yes",
    ]
    report("compiled_speedup", "\n".join(lines))
    assert speedup >= MIN_SPEEDUP, (
        f"compiled sweep speedup {speedup:.2f}x below the {MIN_SPEEDUP:.0f}x "
        f"floor: baseline {baseline_timer.elapsed:.3f}s, compiled "
        f"{compiled_timer.elapsed:.3f}s for {len(grid)} points"
    )
