"""Ablations of design choices DESIGN.md calls out:

* paper start rule (wait for one packet from every tree) vs trace-optimal
  start — delay and buffer cost of the simpler rule;
* live prebuffering — exactly d extra slots;
* structured vs greedy construction — identical guarantees, different
  realized per-node delays.
"""

from __future__ import annotations

from statistics import mean

from conftest import report

from repro.core.playback import buffer_peak
from repro.reporting.tables import format_table
from repro.trees.analysis import all_playback_delays, optimal_startup_delay
from repro.trees.forest import MultiTreeForest
from repro.trees.schedule import LIVE_PREBUFFERED, ScheduleParams, arrival_trace


def start_rule_rows():
    rows = []
    for n, d in ((50, 2), (100, 3), (400, 3)):
        forest = MultiTreeForest.construct(n, d)
        paper = all_playback_delays(forest)
        optimal = {i: optimal_startup_delay(forest, i) for i in forest.real_nodes}
        traces = arrival_trace(forest, 4 * d * forest.height)
        paper_buf = [buffer_peak(traces[i], paper[i]) for i in forest.real_nodes]
        opt_buf = [buffer_peak(traces[i], optimal[i]) for i in forest.real_nodes]
        rows.append(
            (n, d, max(paper.values()), max(optimal.values()),
             round(mean(paper.values()) - mean(optimal.values()), 2),
             max(paper_buf), max(opt_buf))
        )
        assert max(optimal.values()) <= max(paper.values())
        assert all(o <= p for o, p in zip(opt_buf, paper_buf))
    return rows


def construction_rows():
    rows = []
    for n, d in ((100, 2), (100, 3), (500, 3)):
        per = {}
        for construction in ("structured", "greedy"):
            forest = MultiTreeForest.construct(n, d, construction)
            delays = all_playback_delays(forest)
            per[construction] = (max(delays.values()), mean(delays.values()))
        rows.append(
            (n, d, per["structured"][0], round(per["structured"][1], 2),
             per["greedy"][0], round(per["greedy"][1], 2))
        )
        # Identical worst-case guarantee.
        assert abs(per["structured"][0] - per["greedy"][0]) <= d
    return rows


def live_rows():
    rows = []
    for n, d in ((60, 2), (60, 3), (60, 4)):
        forest = MultiTreeForest.construct(n, d)
        base = arrival_trace(forest, 2 * d)
        live = arrival_trace(forest, 2 * d, ScheduleParams(mode=LIVE_PREBUFFERED))
        shift = {
            live[i][p] - base[i][p] for i in forest.real_nodes for p in range(2 * d)
        }
        assert shift == {d}
        rows.append((n, d, d))
    return rows


def test_playback_ablation():
    start_r, cons_r, live_r = start_rule_rows(), construction_rows(), live_rows()
    text = "\n".join(
        [
            format_table(
                ["N", "d", "paper max", "optimal max", "avg gap", "paper buf",
                 "optimal buf"],
                start_r,
                title="Start-rule ablation — paper rule a(i) vs trace-optimal start",
            ),
            "",
            format_table(
                ["N", "d", "structured max", "structured avg", "greedy max",
                 "greedy avg"],
                cons_r,
                title="Construction ablation — realized delays",
            ),
            "",
            format_table(
                ["N", "d", "extra live delay (slots)"],
                live_r,
                title="Live prebuffer — always exactly d slots",
            ),
        ]
    )
    report("ablation_playback", text)
