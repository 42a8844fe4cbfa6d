"""Extension: structured (this paper) vs unstructured (related work) meshes.

The paper's position: structured meshes buy *provable* QoS; unstructured
data-driven overlays (CoolStreaming-style) are best effort — usually fine,
occasionally terrible.  This bench measures both under the identical
communication model.  Expected shape: comparable median delay, but gossip's
tail (p99 / max / undelivered packets) blows past the multi-tree's
deterministic worst case.
"""

from __future__ import annotations

from conftest import report

from repro.baselines.gossip import RandomGossipProtocol
from repro.core.engine import simulate
from repro.reporting.tables import format_table
from repro.trees import MultiTreeProtocol
from repro.trees.analysis import theorem2_bound

HORIZON_PACKETS = 20


def gossip_delay_profile(num_nodes, fanout, seed):
    protocol = RandomGossipProtocol(num_nodes, fanout, seed=seed)
    trace = simulate(protocol, protocol.slots_for_packets(HORIZON_PACKETS))
    lags = []
    missing = 0
    for node in protocol.node_ids:
        arrivals = trace.arrivals(node)
        for packet in range(HORIZON_PACKETS):
            if packet in arrivals:
                lags.append(arrivals[packet] - packet)
            else:
                missing += 1
    lags.sort()
    return {
        "p50": lags[len(lags) // 2],
        "p99": lags[int(len(lags) * 0.99)],
        "max": lags[-1],
        "missing": missing,
    }


def tree_delay_profile(num_nodes, degree):
    protocol = MultiTreeProtocol(num_nodes, degree)
    trace = simulate(protocol, protocol.slots_for_packets(HORIZON_PACKETS))
    lags = []
    for node in protocol.node_ids:
        arrivals = trace.arrivals(node)
        for packet in range(HORIZON_PACKETS):
            lags.append(arrivals[packet] - packet)
    lags.sort()
    return {
        "p50": lags[len(lags) // 2],
        "p99": lags[int(len(lags) * 0.99)],
        "max": lags[-1],
        "missing": 0,
    }


def run():
    n = 120
    rows = []
    tree = tree_delay_profile(n, 3)
    rows.append(("multi-tree d=3", n, tree["p50"], tree["p99"], tree["max"],
                 tree["missing"], theorem2_bound(n, 3)))
    worst_gossip_max = 0
    for seed in range(3):
        g = gossip_delay_profile(n, 4, seed)
        rows.append(
            (f"gossip fanout=4 seed={seed}", n, g["p50"], g["p99"], g["max"],
             g["missing"], "none")
        )
        worst_gossip_max = max(worst_gossip_max, g["max"])
    assert tree["max"] < theorem2_bound(n, 3) + 1  # provable bound holds
    assert worst_gossip_max > tree["max"]  # the unstructured tail is worse
    return rows


def test_structured_vs_unstructured():
    rows = run()
    text = format_table(
        ["scheme", "N", "lag p50", "lag p99", "lag max",
         "undelivered", "provable bound"],
        rows,
        title=(
            "Structured vs unstructured meshes (per-packet arrival lag in "
            f"slots, {HORIZON_PACKETS}-packet horizon)"
        ),
    )
    report("structured_vs_unstructured", text)
