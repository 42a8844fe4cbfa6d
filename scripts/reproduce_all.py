#!/usr/bin/env python
"""One-shot reproduction driver.

Runs the full test suite and the benchmark harness, then assembles every
regenerated table/figure from ``benchmarks/results/`` into a single
``REPRODUCTION.txt`` at the repository root.

Usage:  python scripts/reproduce_all.py [--skip-tests]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args: list[str]) -> int:
    print(f"$ {' '.join(args)}", flush=True)
    return subprocess.run(args, cwd=ROOT).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-tests", action="store_true",
                        help="only run the benchmark harness")
    options = parser.parse_args()

    if not options.skip_tests:
        code = run([sys.executable, "-m", "pytest", "tests/", "-q"])
        if code != 0:
            print("test suite failed; aborting", file=sys.stderr)
            return code

    code = run([sys.executable, "-m", "pytest", "benchmarks/", "-q"])
    if code != 0:
        print("benchmark harness failed; aborting", file=sys.stderr)
        return code

    results = sorted((ROOT / "benchmarks" / "results").glob("*.txt"))
    out_path = ROOT / "REPRODUCTION.txt"
    with out_path.open("w") as out:
        out.write("Reproduction record — every regenerated table and figure\n")
        out.write("=" * 60 + "\n")
        for path in results:
            out.write(f"\n### {path.stem}\n\n")
            out.write(path.read_text())
            out.write("\n")
    print(f"\nwrote {out_path} ({len(results)} reproductions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
