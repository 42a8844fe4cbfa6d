"""Ext-A (deepened): *measured* playback hiccups under mid-stream churn.

The appendix states that up to ~d^2 nodes may suffer hiccups per churn repair
and reports that an empirical evaluation was performed but omitted.  This
bench restores it: packets keep flowing while the appendix repair algorithms
run, and real deadline misses are counted per node.

Expected shape: leaf departures are nearly free; interior departures disrupt
the relocated nodes and their subtrees for a transient bounded by the tree
height; joins are clean (the joiner starts on a complete packet window).
"""

from __future__ import annotations

from conftest import report

from repro.reporting.tables import format_table
from repro.trees.live import ScheduledChurn, churn_experiment
from repro.workloads.churn import ChurnEvent


def scenario(name, num_nodes, degree, churn, packets=36, lazy=False):
    protocol, rep = churn_experiment(
        num_nodes, degree, churn, num_packets=packets, lazy=lazy
    )
    return (
        name,
        "lazy" if lazy else "eager",
        len(churn),
        rep.total_hiccups,
        len(rep.hiccup_nodes),
        len(rep.relocated_nodes),
        round(rep.mean_hiccups(), 2),
    )


def delete(slot, victim):
    return ScheduledChurn(slot, ChurnEvent("delete"), victim=victim)


def add(slot):
    return ScheduledChurn(slot, ChurnEvent("add"))


def run():
    rows = []
    rows.append(scenario("no churn", 30, 3, []))
    rows.append(scenario("leaf departure", 30, 3, [delete(12, 29)]))
    rows.append(scenario("interior departure", 30, 3, [delete(12, 1)]))
    rows.append(scenario("join", 30, 3, [add(12)]))
    burst = [delete(10, 1), delete(13, 5), delete(16, 9), add(20), add(23)]
    rows.append(scenario("burst", 30, 3, burst))
    rows.append(scenario("burst", 30, 3, burst, lazy=True))
    return rows


def test_churn_hiccup_measurement():
    rows = run()
    by_name = {}
    for row in rows:
        by_name.setdefault(row[0], []).append(row)
    assert by_name["no churn"][0][3] == 0
    assert by_name["join"][0][3] == 0
    assert by_name["leaf departure"][0][3] <= 2
    interior = by_name["interior departure"][0]
    assert 0 < interior[3] < 36
    # Disruption is a transient confined to a neighborhood, not the swarm.
    assert interior[4] <= 12
    for row in by_name["burst"]:
        assert row[3] < 30 * 6  # far below nodes * horizon

    text = format_table(
        ["scenario", "mode", "events", "total hiccups", "nodes hiccuping",
         "nodes relocated", "mean hiccups/node"],
        rows,
        title=(
            "Measured playback hiccups under mid-stream churn "
            "(N=30, d=3, 36-packet horizon)"
        ),
    )
    report("ablation_hiccups", text)
