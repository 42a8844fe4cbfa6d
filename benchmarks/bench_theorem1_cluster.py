"""Theorem 1: worst-case delay of the clustered system,
T_c * log_{D-1} K + T_i * d * (h - 1)."""

from __future__ import annotations

from conftest import report

from repro.cluster.analysis import analyze_clustered, theorem1_bound
from repro.cluster.protocol import ClusteredStreamingProtocol
from repro.reporting.tables import format_table


def run():
    rows = []
    for num_clusters in (3, 9, 27):
        for t_c in (2, 5, 10):
            protocol = ClusteredStreamingProtocol(
                [12] * num_clusters, source_degree=3, degree=3, inter_cluster_latency=t_c
            )
            qos = analyze_clustered(protocol, num_packets=6)
            height = max(f.height for f in protocol.forests)
            bound = theorem1_bound(num_clusters, 3, 3, height, t_c)
            rows.append(
                (num_clusters, t_c, qos.measured_max_delay, qos.predicted_max_delay,
                 round(bound, 1))
            )
    return rows


def test_theorem1_reproduction():
    rows = run()
    # Shape checks: delay grows with both K (backbone depth) and T_c, and the
    # T_c coefficient matches the backbone depth.
    by_key = {(k, tc): measured for k, tc, measured, _, _ in rows}
    assert by_key[(9, 5)] > by_key[(3, 5)]
    assert by_key[(27, 5)] > by_key[(9, 5)]
    assert by_key[(9, 10)] > by_key[(9, 2)]
    # K=9, D=3 has backbone depth 2: delay grows ~2 slots per extra T_c slot.
    slope = (by_key[(9, 10)] - by_key[(9, 2)]) / 8
    assert 1.5 <= slope <= 2.5
    text = format_table(
        ["K", "T_c", "measured max delay", "exact prediction", "Thm 1 order bound"],
        rows,
        title="Theorem 1 — clustered worst-case delay (D=3, d=3, N_i=12)",
    )
    report("theorem1_cluster", text)
