"""Extension: heterogeneous deployments — per-cluster scheme choice.

The paper presents both intra-cluster schemes over the same backbone τ; in a
real deployment the choice is per cluster (RAM-rich PoPs vs constrained edge
boxes).  This bench streams through all-tree, all-cube, and mixed
deployments of the same population, confirming each cluster keeps its
scheme's QoS signature end to end.
"""

from __future__ import annotations

from conftest import report

from repro.cluster.protocol import ClusteredStreamingProtocol
from repro.core.engine import simulate
from repro.core.metrics import truncate_arrivals
from repro.core.playback import buffer_peak, earliest_safe_start
from repro.reporting.tables import format_table

SIZES = [20, 20, 20, 20]
PACKETS = 10


def measure(schemes):
    protocol = ClusteredStreamingProtocol(
        SIZES,
        source_degree=3,
        degree=3,
        inter_cluster_latency=4,
        cluster_schemes=schemes,
    )
    trace = simulate(protocol, protocol.slots_for_packets(PACKETS))
    rows = []
    for cluster, layout in enumerate(protocol.layouts):
        delays, buffers = [], []
        for node in layout.receiver_range:
            arrivals = truncate_arrivals(dict(trace.arrivals(node)), PACKETS)
            start = earliest_safe_start(arrivals)
            delays.append(start)
            buffers.append(buffer_peak(arrivals, start))
        rows.append(
            (protocol.cluster_schemes[cluster], cluster, max(delays),
             max(buffers))
        )
    return rows


def run():
    all_tree = measure("multi-tree")
    all_cube = measure("hypercube")
    mixed = measure(["multi-tree", "hypercube", "multi-tree", "hypercube"])
    return all_tree, all_cube, mixed


def test_mixed_cluster_deployments():
    all_tree, all_cube, mixed = run()
    # Scheme signatures survive the backbone: hypercube clusters keep tiny
    # buffers; tree clusters buffer more.
    for scheme, _, _, max_buffer in all_cube:
        assert max_buffer <= 2
    assert any(buffer > 2 for _, _, _, buffer in all_tree)
    for scheme, _, _, max_buffer in mixed:
        if scheme == "hypercube":
            assert max_buffer <= 2
    rows = [("all multi-tree", *row[1:]) for row in all_tree]
    rows += [("all hypercube", *row[1:]) for row in all_cube]
    rows += [(f"mixed ({row[0]})", *row[1:]) for row in mixed]
    text = format_table(
        ["deployment", "cluster", "max delay", "max buffer"],
        rows,
        title=(
            "Heterogeneous deployments over one backbone "
            "(K=4 x 20 receivers, D=3, d=3, T_c=4)"
        ),
    )
    report("mixed_clusters", text)
