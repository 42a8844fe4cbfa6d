"""Theorem 2: worst-case playback delay T <= h*d, tight on complete trees.

Also covers the paper's omitted simulation (Ext-B in DESIGN.md): delay
behaviour for populations whose trees are *not* complete, where T can fall
strictly below the bound.
"""

from __future__ import annotations

from conftest import report

from repro.reporting.tables import format_table
from repro.trees.analysis import theorem2_bound, worst_case_delay
from repro.trees.forest import MultiTreeForest
from repro.workloads.sweeps import complete_tree_populations


def run():
    rows = []
    # Complete trees: the bound is achieved exactly.
    for d in (2, 3, 4):
        for n in complete_tree_populations(d, max_nodes=1500):
            measured = worst_case_delay(MultiTreeForest.construct(n, d))
            bound = theorem2_bound(n, d)
            rows.append((n, d, "complete", measured, bound))
            assert measured == bound
    # Incomplete trees: bounded, sometimes strictly below.
    slack_seen = False
    for d in (2, 3):
        for n in (11, 23, 47, 95, 200, 411, 837):
            measured = worst_case_delay(MultiTreeForest.construct(n, d))
            bound = theorem2_bound(n, d)
            assert measured <= bound
            slack_seen |= measured < bound
            rows.append((n, d, "incomplete", measured, bound))
    assert slack_seen, "some incomplete population should beat the bound"
    return rows


def test_theorem2_reproduction():
    rows = run()
    text = format_table(
        ["N", "d", "tree shape", "measured T", "bound h*d"],
        rows,
        title="Theorem 2 — worst-case playback delay vs the h*d bound",
    )
    report("theorem2_worst_delay", text)
