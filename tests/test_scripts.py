"""Smoke test for the one-shot reproduction driver."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# Benches the smoke test leaves out of its copy: together they take about a
# minute (a million-session stream, a 100k-session fleet and the timed
# speedup floors).  A full `reproduce_all.py` run, and CI's
# bench-reproductions job, still run them.
_SLOW_BENCHES = (
    "bench_fleet_million.py",
    "bench_fleet_scale.py",
    "bench_compiled_speedup.py",
)


def test_reproduce_all_skip_tests(tmp_path):
    # The driver rewrites benchmarks/results/* and REPRODUCTION.txt under its
    # own root, so run a copy of it and leave the tracked files alone.
    shutil.copy2(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", *_SLOW_BENCHES)
    for name in ("scripts", "benchmarks"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    # Start from no results, so every section must come from this run.
    results = tmp_path / "benchmarks" / "results"
    shutil.rmtree(results)
    results.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "reproduce_all.py"), "--skip-tests"],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    record = tmp_path / "REPRODUCTION.txt"
    assert record.exists()
    text = record.read_text()
    # Every reproduction section is present.
    for name in (
        "figure4_delay_vs_n",
        "table1_comparison",
        "theorem2_worst_delay",
        "prop1_special_n",
        "ablation_churn",
        "abr_tradeoff",
    ):
        assert f"### {name}" in text
