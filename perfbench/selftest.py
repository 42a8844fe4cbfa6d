"""Attribution self-test: a planted slowdown must be flagged in its layer alone.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seed 21] [--pairs 6]

Runs ``fleet_bulk`` in pairs: a baseline run and a run in which every call
of ``replay_batch`` busy-waits for as long as the call itself took, which
doubles the ``batch.kernel`` layer (about half of the workload, so the
slowdown exceeds the end-to-end bound).  Each side runs once untraced (for
``us_per_session``) and once traced (for per-layer self time) after one
host-speed calibration, and each figure is the median of its scaled
repeats, as in ``run.py``.  A layer is flagged
when its self time grows by more than ``LAYER_GROWTH`` and by more than
``LAYER_SHARE`` of the baseline wall time; ``us_per_session`` is flagged
when it grows by more than its bound in ``BENCHMARK.json``.  The test
passes when ``us_per_session`` and ``batch.kernel`` are flagged and no
other layer is.  Exits 0 on pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections.abc import Callable
from typing import Any

from run import ISOLATING_ENV, ROOT, Bench, _import_package, host_scale

PLANTED_LAYER = "batch.kernel"
PLANTED_TARGET = ("repro.exec.batch", "replay_batch")
LAYER_GROWTH = 0.25
LAYER_SHARE = 0.02


def repeat_duration(original: Callable[..., Any]) -> Callable[..., Any]:
    """``original`` followed by a busy wait as long as the call took."""

    def slowed(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        out = original(*args, **kwargs)
        end = time.perf_counter()
        until = end + (end - start)
        while time.perf_counter() < until:
            pass
        return out

    return slowed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    for name in ISOLATING_ENV:
        os.environ.pop(name, None)
    _import_package()
    from layers import LayerClock, patch_function, traced
    from workloads import DEFAULT_SEED

    bench = Bench("fleet_bulk", DEFAULT_SEED if args.seed is None else args.seed)
    walls: dict[bool, list[float]] = {False: [], True: []}
    layer_s: dict[bool, list[dict[str, float]]] = {False: [], True: []}

    def one(planted: bool) -> None:
        plant = repeat_duration if planted else (lambda original: original)
        with patch_function(*PLANTED_TARGET, plant):
            scale = host_scale()
            wall, _, _ = bench.run()
            walls[planted].append(wall * scale)
            clock = LayerClock()
            with traced(clock):
                bench.run()
            layer_s[planted].append(
                {layer: spent * scale for layer, spent in clock.self_s.items()}
            )

    for pair in range(args.pairs):
        # Alternate which side runs first.
        for planted in ((False, True) if pair % 2 == 0 else (True, False)):
            one(planted)
    if bench.problems:
        print("FAIL: output checks failed: " + "; ".join(bench.problems))
        return 1

    bound = next(
        metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        if metric["name"] == "us_per_session"
    )
    base_wall = statistics.median(walls[False])
    growth = statistics.median(walls[True]) / base_wall - 1
    e2e_flagged = growth > bound
    print(f"us_per_session growth {growth:+.1%} (bound {bound:.0%}): "
          f"{'flagged' if e2e_flagged else 'not flagged'}")
    flagged = set()
    layers = sorted({layer for sample in layer_s[False] + layer_s[True] for layer in sample})
    for layer in layers:
        before = statistics.median(sample.get(layer, 0.0) for sample in layer_s[False])
        after = statistics.median(sample.get(layer, 0.0) for sample in layer_s[True])
        hit = after - before > max(LAYER_GROWTH * before, LAYER_SHARE * base_wall)
        if hit:
            flagged.add(layer)
        print(f"{layer:<16} {before:9.4f}s -> {after:9.4f}s{'  flagged' if hit else ''}")
    if e2e_flagged and flagged == {PLANTED_LAYER}:
        print(f"PASS: slowdown attributed to {PLANTED_LAYER} alone")
        return 0
    print(f"FAIL: flagged layers {sorted(flagged)}, us_per_session flagged={e2e_flagged}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
