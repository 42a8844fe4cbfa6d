"""Benchmark harness support.

Every bench regenerates one of the paper's tables or figures.  Reproduced
output is registered via :func:`report` and (a) written to
``benchmarks/results/<name>.txt`` and (b) echoed into the terminal summary, so
``pytest benchmarks/ | tee bench_output.txt`` captures every reproduction.

The result files hold reproduced outputs only, never a wall time, so a
bench rerun leaves them unchanged unless a reproduced figure changed.  The
benches that assert a speed bound measure it with :class:`repro.obs.Timer`
and keep the measured numbers in their assert messages; speed claims are
made with ``perfbench/``, the fingerprinted and calibrated harness.
"""

from __future__ import annotations

from pathlib import Path

_RESULTS_DIR = Path(__file__).parent / "results"
_REGISTRY: list[tuple[str, str]] = []


def report(name: str, text: str) -> None:
    """Write ``results/<name>.txt`` and register it for the terminal summary."""
    _REGISTRY.append((name, text))
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REGISTRY:
        return
    terminalreporter.section("paper reproductions")
    for name, text in _REGISTRY:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {name} ===")
        for line in text.splitlines():
            terminalreporter.write_line(line)
