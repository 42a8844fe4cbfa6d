"""Smoke test for the one-shot reproduction driver."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_all_skip_tests(tmp_path):
    # The driver rewrites benchmarks/results/* and REPRODUCTION.txt under its
    # own root, so run a copy of it and leave the tracked files alone.
    shutil.copy2(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".benchmarks")
    for name in ("scripts", "benchmarks"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
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
    ):
        assert f"### {name}" in text
