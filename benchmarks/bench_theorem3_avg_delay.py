"""Theorem 3: lower bound on the average playback delay (complete trees)."""

from __future__ import annotations

from conftest import report

from repro.reporting.tables import format_table
from repro.trees.analysis import average_delay, theorem3_lower_bound
from repro.trees.forest import MultiTreeForest
from repro.workloads.sweeps import complete_tree_populations


def run():
    rows = []
    for d in (2, 3, 4):
        for n in complete_tree_populations(d, max_nodes=1500):
            measured = average_delay(MultiTreeForest.construct(n, d))
            bound = theorem3_lower_bound(n, d)
            assert measured >= bound - 1e-9
            rows.append((n, d, round(measured, 2), round(bound, 2),
                         round(measured / bound, 2) if bound > 0 else float("inf")))
    return rows


def test_theorem3_reproduction():
    rows = run()
    text = format_table(
        ["N", "d", "measured avg", "Thm 3 lower bound", "ratio"],
        rows,
        title=(
            "Theorem 3 — average playback delay vs the lower bound\n"
            "(the bound is valid but loose; see DESIGN.md on the proof's |L_k|)"
        ),
    )
    report("theorem3_avg_delay", text)
