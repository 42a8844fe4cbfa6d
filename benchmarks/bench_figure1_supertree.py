"""Figure 1: the cluster backbone τ with source S, D=3, d=4, K=9 clusters."""

from __future__ import annotations

from conftest import report

from repro.cluster.analysis import analyze_clustered
from repro.cluster.protocol import ClusteredStreamingProtocol
from repro.cluster.supertree import build_supertree


def test_figure1_reproduction():
    tree = build_supertree(9, 3)
    tree.verify()
    # Paper figure: S feeds S_1..S_3; S_1 feeds S_4, S_5; S_2 feeds S_6, S_7;
    # S_3 feeds S_8, S_9 (0-indexed here).
    assert tree.root_clusters() == [0, 1, 2]
    assert tree.children_of(0) == [3, 4]
    assert tree.children_of(1) == [5, 6]
    assert tree.children_of(2) == [7, 8]

    lines = ["Figure 1 — backbone super-tree (K=9, D=3); 1-indexed as the paper"]
    lines.append("  S -> S_1, S_2, S_3")
    for cluster in range(3):
        kids = ", ".join(f"S_{c + 1}" for c in tree.children_of(cluster))
        lines.append(f"  S_{cluster + 1} -> {kids}  (plus its local S'_{cluster + 1})")
    report("figure1_supertree", "\n".join(lines))


def test_figure1_end_to_end():
    """Stream through the full Figure 1 system (K=9, D=3, d=4)."""

    def run():
        protocol = ClusteredStreamingProtocol(
            [16] * 9, source_degree=3, degree=4, inter_cluster_latency=5
        )
        return analyze_clustered(protocol, num_packets=8)

    qos = run()
    assert qos.measured_max_delay <= qos.predicted_max_delay
    report(
        "figure1_end_to_end",
        "\n".join(
            [
                "Figure 1 system, measured (K=9, D=3, d=4, T_c=5, 16 nodes/cluster):",
                f"  worst-case startup delay: {qos.measured_max_delay} slots",
                f"  average startup delay:    {qos.measured_avg_delay:.2f} slots",
                f"  deterministic prediction: {qos.predicted_max_delay} slots",
                f"  Theorem 1 order bound:    {qos.theorem1_bound:.2f}",
            ]
        ),
    )
