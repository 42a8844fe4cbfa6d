"""Fleet benchmark: end-to-end and per-layer cost of ``FleetRunner.run``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_bulk --seed 21 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs:
``us_per_session`` (wall time of one ``FleetRunner.run`` over the offered
sessions), ``setup_s`` (wall time of a fresh interpreter that imports the
package and compiles the workload's session kinds once) and
``peak_rss_mb``.  Timings are medians over many ~1 s repeats, each scaled
to a reference host speed (see :func:`calibrate`); the unscaled medians are
printed and recorded beside them.  ``--trace 1``
alternates untraced and traced runs and reports per-layer metrics from the
traced ones (see ``layers.py``), plus the tracing overhead.  Every run is checked against the workload's pinned
outputs (``workloads.py``); a run that fails a check counts all its offered
sessions as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each invocation also appends a record to ``perfbench/out/history.jsonl``,
keyed by a fingerprint of the workload parameters, seed, package, Python
and NumPy versions and CPU count, and compares it only with earlier records
of the same fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HISTORY = HERE / "out" / "history.jsonl"

#: Settings that would let a developer's disk cache make compiles free, or
#: make runs append to a ledger.
ISOLATING_ENV = ("REPRO_CACHE_DIR", "REPRO_CACHE_MAX_BYTES", "REPRO_LEDGER")

#: One set-up measurement per this many timed runs, so that set-up samples
#: spread over the whole measuring window like the runs do.
SETUP_EVERY = 3
MIN_RUNS = 5
MIN_TRACED_PAIRS = 3

#: Calibration time of the reference host; see :func:`calibrate`.
CALIBRATION_REF_S = 0.035

SETUP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import repro, repro.service, repro.control.scenario, repro.abr
from repro.exec.cache import ScheduleCache
from repro.exec.compiler import compile_schedule
cache = ScheduleCache(capacity=64, disk=False)
for kind in json.loads(sys.argv[2]):
    compile_schedule(cache=cache, **kind)
"""


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter and NumPy work.

    On a shared host one process alternates between CPU-speed states up to
    1.6x apart, in phases that can outlast a whole measurement, and the
    states slow interpreter loops and NumPy kernels alike.  So every timed
    run follows one calibration, which touches nothing of the package under
    test, and is scaled by ``CALIBRATION_REF_S / calibration``: the time the
    run would have taken on the reference host.  Over six seeds of
    ``fleet_service`` this cut the spread of the per-session time from 12%
    to 2%.
    """
    import numpy as np

    matrix = np.random.default_rng(0).random((256, 64))
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(300_000):
        table[i & 255] = total
        total += i
    for _ in range(200):
        np.bincount((np.sort(matrix, axis=1) * 100).astype(np.int64).ravel())
    return time.perf_counter() - start


def host_scale() -> float:
    """Factor that turns a wall time measured now into reference-host time."""
    return CALIBRATION_REF_S / calibrate()


def _import_package() -> Any:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not from {SRC}")
    return repro


def _per(amount: float, base: float, scale: float = 1e6) -> float:
    return amount / base * scale if base else 0.0


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _counter_total(snapshot: dict, name: str) -> int:
    return sum(c["value"] for c in snapshot["counters"] if c["name"] == name)


def _kinds(spec: Any) -> list[dict[str, Any]]:
    """``compile_schedule`` arguments of each of the fleet's session kinds."""
    return [
        {
            "scheme": kind.scheme, "num_nodes": kind.num_nodes,
            "degree": kind.degree, "num_packets": kind.num_packets,
            "construction": kind.construction, "mode": kind.mode,
            "latency": kind.latency,
        }
        for kind in spec.sessions
    ]


def measure_setup(kinds: list[dict[str, Any]]) -> float:
    """Wall seconds of a fresh interpreter importing and compiling ``kinds``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(SRC), json.dumps(kinds)],
        cwd=ROOT, env=dict(os.environ), check=True, capture_output=True,
        timeout=120,
    )
    return time.perf_counter() - start


class Bench:
    """One workload at one seed: fresh runner per run, checked outputs."""

    def __init__(self, name: str, seed: int) -> None:
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.spec = self.workload.spec(seed)
        self.offered = self.spec.num_sessions
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        # An untimed first run fills process-global memos (first-arrival
        # tables, lowered schedules of retuned kinds), as in any process
        # that has served a fleet before; it is checked like the others.
        self.run()

    def run(self) -> tuple[float, Any, Any]:
        """One checked run: ``(wall seconds, FleetRunResult, registry)``.

        Every run gets a fresh runner, private schedule cache and metrics
        registry, and the serial executor regardless of core count.
        """
        from repro.exec.cache import ScheduleCache
        from repro.exec.executor import ExecutorPolicy
        from repro.obs.registry import MetricsRegistry
        from repro.service import FleetRunner

        from workloads import check_run

        gc.collect()
        registry = MetricsRegistry()
        start = time.perf_counter()
        runner = FleetRunner(
            cache=ScheduleCache(capacity=64, disk=False),
            policy=ExecutorPolicy(mode="serial"),
            registry=registry,
        )
        result = runner.run(self.spec)
        wall = time.perf_counter() - start
        problems = check_run(self.workload, self.seed, self.offered, result)
        # The dataclass repr holds every field to_dict() does, floats in
        # round-trip form, at a small fraction of to_dict()'s cost on exact
        # reports (0.2 s against 3 s for 4k retained sessions).
        self.digests.add(hashlib.sha256(repr(result.report).encode()).hexdigest())
        if len(self.digests) > 1:
            problems.append("report digest differs between runs of one seed")
        self.attempted += self.offered
        if problems:
            self.failed += self.offered
            self.problems.extend(problems)
        return wall, result, registry


def layer_metrics(
    clock: Any, wall: float, result: Any, registry: Any, offered: int, scale: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but the overhead), with
    times multiplied by the host-speed ``scale``."""
    spent = defaultdict(float, {k: v * scale for k, v in clock.self_s.items()})
    calls = clock.calls
    report = result.report
    snapshot = registry.snapshot()
    kernel_sessions = _counter_total(snapshot, "sweep.batch_sessions")
    batched_tx = _counter_total(snapshot, "sweep.batched_tx")
    units = result.executor_info.get("units", 0)
    executed = result.executor_info.get("tasks", 0)
    stamps = clock.stamps["control.step"]
    epoch_ms = [(b - a) * 1e3 * scale for a, b in zip(stamps, stamps[1:])]
    return {
        "spec.resolve_us": _per(spent["spec.resolve"], offered),
        "admission.admit_us": _per(spent["admission"], offered),
        "admission.queued_frac": report.queued / report.num_sessions,
        "admission.reject_frac": report.rejected / report.num_sessions,
        "compile.s": spent["compile"],
        "compile.misses": report.cache_misses,
        "compile.hit_rate": report.cache_hit_rate,
        "batch.mask_us": _per(spent["batch.mask"], kernel_sessions),
        "batch.kernel_us": _per(spent["batch.kernel"], kernel_sessions),
        "batch.calls": calls["batch.kernel"],
        "batch.sessions_per_call": _per(kernel_sessions, calls["batch.kernel"], 1),
        "batch.tx_per_session": _per(batched_tx, kernel_sessions, 1),
        "batch.ns_per_tx": _per(spent["batch.kernel"], batched_tx, 1e9),
        "slo.score_us": _per(spent["slo.score"], kernel_sessions),
        "abr.session_us": _per(spent["abr.session"], calls["abr.session"]),
        "abr.sessions": calls["abr.session"],
        "slo.aggregate_us": _per(spent["slo.aggregate"], offered),
        "executor.overhead_us": _per(spent["executor"], units),
        "executor.units": units,
        "unit.self_us": _per(spent["unit"], executed),
        "runner.self_us": _per(spent["runner"], offered),
        "control.step_us": _per(spent["control.step"], calls["control.step"]),
        "control.epochs": calls["control.step"],
        "control.epoch_ms_p50": _nearest_rank(epoch_ms, 0.50),
        "control.epoch_ms_p95": _nearest_rank(epoch_ms, 0.95),
        # Share of the wall explained by named layers: the runner's self time
        # is whatever they miss, so a layer that stops being wrapped shows
        # here instead of vanishing into ``runner.self_us``.
        "trace.coverage": (clock.total_s() - clock.self_s["runner"]) / wall,
    }


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics, plus the unscaled medians as ``raw_*`` entries."""
    kinds = _kinds(bench.spec)
    setup: list[float] = []
    walls: list[float] = []
    scales: list[float] = []
    begin = time.perf_counter()
    while len(walls) < MIN_RUNS or (
        time.perf_counter() - begin + min(walls) <= seconds
    ):
        scales.append(host_scale())
        if len(walls) % SETUP_EVERY == 0:
            setup.append(measure_setup(kinds))
        wall, _, _ = bench.run()
        walls.append(wall)
    scaled = [wall * scale for wall, scale in zip(walls, scales)]
    scaled_setup = [s * scales[i * SETUP_EVERY] for i, s in enumerate(setup)]
    print(f"runs: {len(walls)}  scaled wall_s: {' '.join(f'{w:.3f}' for w in scaled)}")
    print(f"host speed scales: {' '.join(f'{x:.3f}' for x in scales)}")
    print(f"setups: {len(setup)}  scaled setup_s: {' '.join(f'{s:.3f}' for s in scaled_setup)}")
    raw = {
        "raw_us_per_session": statistics.median(walls) / bench.offered * 1e6,
        "raw_setup_s": statistics.median(setup),
    }
    print(
        f"unscaled medians: us_per_session {raw['raw_us_per_session']:.4f} us  "
        f"setup_s {raw['raw_setup_s']:.4f} s"
    )
    return {
        "us_per_session": statistics.median(scaled) / bench.offered * 1e6,
        "setup_s": statistics.median(scaled_setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **raw,
    }


def measure_layers(bench: Bench, seconds: float) -> dict[str, float]:
    from layers import LayerClock, traced

    pair_s: list[float] = []
    overheads: list[float] = []
    samples: list[dict[str, float]] = []
    absent: set[str] = set()
    begin = time.perf_counter()
    while len(pair_s) < MIN_TRACED_PAIRS or (
        time.perf_counter() - begin + min(pair_s) <= seconds
    ):
        scale = host_scale()
        plain, _, _ = bench.run()
        clock = LayerClock()
        with traced(clock) as missing:
            wall, result, registry = bench.run()
        absent.update(missing)
        pair_s.append(plain + wall)
        overheads.append(wall / plain - 1)
        samples.append(
            layer_metrics(clock, wall, result, registry, bench.offered, scale)
        )
        del result, registry
    print(f"pairs: {len(pair_s)}  absent layers: {', '.join(sorted(absent)) or 'none'}")
    metrics = {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    return metrics


def fingerprint(repro: Any, bench: Bench) -> str:
    import numpy

    identity = {
        "workload": bench.workload.name,
        "params": bench.workload.params,
        "seed": bench.seed,
        "repro": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }
    canonical = json.dumps(identity, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def compare_history(record: dict[str, Any], end_to_end: list[dict]) -> list[str]:
    """Flags for end-to-end metrics that regressed against earlier records
    of the same fingerprint: worse than their median by more than the
    metric's bound and outside their range.  Needs three earlier records."""
    try:
        history = [json.loads(line) for line in HISTORY.read_text().splitlines()]
    except (OSError, ValueError):
        return []
    earlier = [
        r for r in history
        if r.get("fingerprint") == record["fingerprint"] and r.get("trace") == record["trace"]
    ][-10:]
    flags = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        past = [r["metrics"][name] for r in earlier if name in r.get("metrics", {})]
        if len(past) < 3 or name not in record["metrics"]:
            continue
        sign = 1 if metric["better"] == "lower" else -1
        value, median = record["metrics"][name], statistics.median(past)
        worst = max(past) if sign > 0 else min(past)
        if sign * (value - median) > bound * abs(median) and sign * (value - worst) > 0:
            flags.append(
                f"regression {name}: {value:.4g} vs median {median:.4g} of "
                f"{len(past)} earlier runs (bound {bound:.0%})"
            )
    return flags


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in ISOLATING_ENV:
        os.environ.pop(name, None)
    try:
        repro = _import_package()
        from workloads import DEFAULT_SEED, WORKLOADS
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = DEFAULT_SEED if args.seed is None else args.seed
    bench = Bench(args.workload, seed)
    stamp = fingerprint(repro, bench)
    print(f"workload: {args.workload}  seed: {seed}  fingerprint: {stamp}")
    if args.trace:
        metrics = measure_layers(bench, args.seconds)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    else:
        metrics = measure_end_to_end(bench, args.seconds)
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for problem in bench.problems:
        print(f"check failed: {problem}")
    for name, unit in units.items():
        print(f"{name:<24} {metrics[name]:>14.4f} {unit}")
    record = {
        "fingerprint": stamp,
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "metrics": metrics,
    }
    for flag in compare_history(record, contract["end_to_end"]):
        print(flag)
    HISTORY.parent.mkdir(exist_ok=True)
    with HISTORY.open("a") as out:
        out.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
