"""Extension: per-node delay distributions (the paper reports only the worst
case and an average bound).

Expected shape: most nodes start far earlier than the worst case — the
distribution is bottom-heavy because only the last BFS positions of each
tree pay the full h*d — and degree 2 vs 3 differ more in the tail than in
the median.
"""

from __future__ import annotations

from conftest import report

from repro.reporting.tables import format_table
from repro.trees.distribution import delay_distribution, delay_histogram
from repro.trees.forest import MultiTreeForest


def run():
    rows = []
    hists = {}
    for n, d in ((500, 2), (500, 3), (2000, 2), (2000, 3)):
        forest = MultiTreeForest.construct(n, d)
        dist = delay_distribution(forest)
        rows.append(
            (n, d, dist.minimum, round(dist.quantiles[50], 1),
             round(dist.quantiles[90], 1), round(dist.quantiles[99], 1),
             dist.maximum, round(dist.mean, 2))
        )
        if n == 2000:
            hists[d] = delay_histogram(forest)
    return rows, hists


def test_delay_distribution():
    rows, hists = run()
    for row in rows:
        _, _, minimum, p50, p90, p99, maximum, mean = row
        assert minimum <= p50 <= p90 <= p99 <= maximum
        # Bottom-heavy: the median sits well below the worst case.
        assert p50 <= 0.8 * maximum
    lines = [
        format_table(
            ["N", "d", "min", "p50", "p90", "p99", "max", "mean"],
            rows,
            title="Playback-delay distribution across nodes (paper rule a(i))",
        ),
        "",
        "Delay histogram, N=2000:",
    ]
    for d, hist in sorted(hists.items()):
        total = sum(hist.values())
        cells = ", ".join(f"{delay}:{count}" for delay, count in hist.items())
        lines.append(f"  d={d} ({total} nodes): {cells}")
    report("delay_distribution", "\n".join(lines))
