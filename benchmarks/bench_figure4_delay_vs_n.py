"""Figure 4: worst-case startup delay vs N for tree degrees 2-5.

The paper's only measured figure.  Expected shape: staircase curves growing
logarithmically in N, with degrees 2 and 3 close together at the bottom and
higher degrees strictly worse — the empirical basis for Section 2.3's
conclusion that degree 2 or 3 is optimal.
"""

from __future__ import annotations

from conftest import report

from repro.core.engine import simulate
from repro.core.metrics import collect_metrics
from repro.reporting.series import ascii_plot, series_table
from repro.trees import MultiTreeProtocol
from repro.trees.analysis import worst_case_delay
from repro.trees.forest import MultiTreeForest
from repro.workloads.sweeps import degree_sweep, figure4_populations


def sweep(populations, degrees):
    series = {}
    for d in degrees:
        series[f"degree {d}"] = [
            worst_case_delay(MultiTreeForest.construct(n, d)) for n in populations
        ]
    return series


def test_figure4_reproduction():
    populations = figure4_populations(2000, step=50, start=10)
    degrees = degree_sweep()
    series = sweep(populations, degrees)

    # Paper-shape checks: monotone-ish growth, degree ordering at the tail.
    tail = {name: values[-1] for name, values in series.items()}
    assert tail["degree 2"] <= tail["degree 4"] <= tail["degree 5"]
    assert tail["degree 3"] <= tail["degree 4"]
    assert max(tail.values()) <= 40  # paper's y-axis tops out around 30

    # Degrees 2 and 3 stay close (within a few slots) across the sweep.
    gap = max(
        abs(a - b) for a, b in zip(series["degree 2"], series["degree 3"])
    )
    assert gap <= 6

    text = "\n".join(
        [
            "Figure 4 — worst-case startup delay vs number of nodes",
            ascii_plot(populations, series, title="(paper: staircases, d=2,3 lowest)"),
            "",
            series_table("N", populations[::4], {k: v[::4] for k, v in series.items()}),
        ]
    )
    report("figure4_delay_vs_n", text)


def test_figure4_simulation_cross_check():
    """Spot-check the analytic curve against full packet-level simulation."""

    def check():
        results = []
        for n in (50, 250, 600):
            for d in (2, 3):
                protocol = MultiTreeProtocol(n, d)
                analytic = worst_case_delay(protocol.forest)
                trace = simulate(protocol, protocol.slots_for_packets(2 * d))
                measured = collect_metrics(trace, num_packets=2 * d)
                # Engine measures the trace-optimal start, which the paper's
                # rule upper-bounds.
                assert measured.max_startup_delay <= analytic
                assert analytic - measured.max_startup_delay < 2 * d
                results.append((n, d, analytic, measured.max_startup_delay))
        return results

    rows = check()
    text = "\n".join(
        ["Figure 4 cross-check — analytic (paper rule) vs simulated (optimal start)"]
        + [f"  N={n:4d} d={d}: analytic={a:3d}  simulated={m:3d}" for n, d, a, m in rows]
    )
    report("figure4_cross_check", text)
