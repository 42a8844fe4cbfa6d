"""Future work implemented: hypercube membership dynamics.

The paper defers node dynamics for the hypercube scheme to future work.  This
bench quantifies the tension that makes it hard:

* a cube has **zero capacity slack** — any unrepaired vacancy starves its
  neighbors (measured via ghost vertices), so repairs must be immediate;
* immediate repair then trades *relocations* (fill-from-tail: at most one per
  event, but delays drift) against *delay optimality* (rebuild: optimal
  delays, but bulk relocations at decomposition boundaries).
"""

from __future__ import annotations

import numpy as np
from conftest import report

from repro.hypercube.cube import CubeExchange
from repro.hypercube.dynamics import CascadeMembership
from repro.reporting.tables import format_table


def ghost_starvation_rows():
    rows = []
    for ghosts in (frozenset(), frozenset({3}), frozenset({1})):
        cube = CubeExchange(3, ghosts=ghosts)
        arrivals = {v: {} for v in range(1, 8) if v not in ghosts}
        for t in range(90):
            for tr in cube.step(inject=t):
                arrivals[tr.receiver].setdefault(tr.packet, t)
            port = 1 << (t % 3)
            if port in arrivals:
                arrivals[port].setdefault(t, t)

        def lag(upto):
            worst = 0
            for arr in arrivals.values():
                f = -1
                while f + 1 in arr and arr[f + 1] <= upto:
                    f += 1
                worst = max(worst, upto - f)
            return worst

        label = "none" if not ghosts else f"vertex {min(ghosts)}"
        rows.append((label, lag(40), lag(80)))
    return rows


def churn_strategy_rows(seed=11, events=40):
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(events):
        plans.append("leave" if rng.random() < 0.5 else "join")
    rows = []
    for strategy in ("fill-from-tail", "rebuild"):
        membership = CascadeMembership(80, strategy=strategy)
        relocations = 0
        worst_penalty = 0
        for op in plans:
            if op == "leave" and membership.num_nodes > 2:
                victim = int(rng.choice(sorted(membership.members())))
                event = membership.leave(victim)
            else:
                _, event = membership.join()
            relocations += len(event.relocated)
            worst_penalty = max(worst_penalty, membership.delay_penalty())
        membership.verify()
        rows.append((strategy, events, relocations, worst_penalty,
                     membership.delay_penalty()))
    return rows


def test_hypercube_dynamics_ablation():
    ghost_rows, churn_rows = ghost_starvation_rows(), churn_strategy_rows()
    # No ghost: lag constant (= k).  Any ghost: lag grows between checkpoints.
    base = ghost_rows[0]
    assert base[1] == base[2]
    for row in ghost_rows[1:]:
        assert row[2] > row[1]
    by_strategy = {r[0]: r for r in churn_rows}
    assert by_strategy["fill-from-tail"][2] < by_strategy["rebuild"][2]
    assert by_strategy["rebuild"][3] == 0

    text = "\n".join(
        [
            format_table(
                ["vacancy", "worst lag @ slot 40", "worst lag @ slot 80"],
                ghost_rows,
                title=(
                    "Zero slack: an unrepaired vacancy starves neighbors "
                    "(k=3 cube; lag = slots behind a full-rate stream)"
                ),
            ),
            "",
            format_table(
                ["strategy", "events", "total relocations", "worst delay penalty",
                 "final delay penalty"],
                churn_rows,
                title="Repair strategies under 40 churn events (start N=80)",
            ),
        ]
    )
    report("ablation_hc_dynamics", text)
