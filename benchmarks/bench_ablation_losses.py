"""Failure injection: what packet loss costs under the paper's model.

The communication model has zero throughput slack (each receiver's
one-receive-per-slot budget is exactly consumed), so a lost packet can never
be re-delivered without falling behind — in *either* scheme.  This bench
measures the blast radius of single drops and the miss rate under sustained
random loss, confirming losses are permanent but isolated.
"""

from __future__ import annotations

from conftest import report

from repro.core.engine import simulate
from repro.core.packet import Transmission
from repro.hypercube.protocol import HypercubeProtocol
from repro.reporting.tables import format_table
from repro.trees.live import ChurningMultiTreeProtocol
from repro.workloads.faults import bernoulli_drop, link_blackout


def _single_drop_after(slot):
    state: dict = {"dropped": None}

    def rule(tx: Transmission) -> bool:
        if state["dropped"] is None and tx.slot >= slot and tx.sender != 0:
            state["dropped"] = tx
            return True
        return False

    return rule, state


def single_drop_rows():
    rows = []
    for drop_slot in (5, 9, 14, 20):
        rule, state = _single_drop_after(drop_slot)
        protocol = HypercubeProtocol(15, loss_aware=True)
        trace = simulate(protocol, 80, drop_rule=rule)
        lost = state["dropped"].packet
        victims = sum(1 for n in protocol.node_ids if lost not in trace.arrivals(n))
        other_misses = sum(
            1
            for n in protocol.node_ids
            for p in range(40)
            if p != lost and p not in trace.arrivals(n)
        )
        rows.append(("hypercube", drop_slot, lost, victims, other_misses))
        assert victims >= 1
        assert other_misses == 0  # isolation

    protocol = ChurningMultiTreeProtocol(15, 3, [])
    trace = simulate(
        protocol,
        protocol.slots_for_packets(16),
        strict_duplicates=False,
        drop_rule=link_blackout(0, 1, start=0, end=1),
    )
    victims = sum(1 for n in protocol.node_ids if 0 not in trace.arrivals(n))
    other = sum(
        1
        for n in protocol.node_ids
        for p in range(1, 12)
        if p not in trace.arrivals(n)
    )
    rows.append(("multi-tree", 0, 0, victims, other))
    assert other == 0
    return rows


def sustained_loss_rows():
    rows = []
    for rate in (0.02, 0.05, 0.10):
        protocol = HypercubeProtocol(15, loss_aware=True)
        trace = simulate(protocol, 160, drop_rule=bernoulli_drop(rate, seed=5))
        horizon = 120
        total = 15 * horizon
        misses = sum(
            1
            for n in protocol.node_ids
            for p in range(horizon)
            if p not in trace.arrivals(n)
        )
        rows.append((rate, round(misses / total, 4)))
    # Miss rate grows with loss rate, without cascading collapse.
    fractions = [r[1] for r in rows]
    assert fractions == sorted(fractions)
    assert fractions[-1] < 0.5
    return rows


def test_loss_ablation():
    single, sustained = single_drop_rows(), sustained_loss_rows()
    text = "\n".join(
        [
            format_table(
                ["scheme", "drop slot", "lost packet", "nodes missing it",
                 "other packet misses"],
                single,
                title=(
                    "Single-drop blast radius (N=15): permanent but isolated "
                    "to one packet's downstream cone"
                ),
            ),
            "",
            format_table(
                ["loss rate", "per-(node,packet) miss fraction"],
                sustained,
                title="Sustained Bernoulli loss on the hypercube (zero-slack model)",
            ),
        ]
    )
    report("ablation_losses", text)
