"""Proposition 1: for N = 2^k - 1, each node talks to k neighbors, starts
playback after slot k+1, and stores at most 2 packets."""

from __future__ import annotations

from conftest import report

from repro.core.engine import simulate
from repro.core.metrics import collect_metrics
from repro.hypercube.analysis import proposition1_claims
from repro.hypercube.protocol import HypercubeProtocol
from repro.reporting.tables import format_table


def run():
    rows = []
    for k in range(1, 9):
        n = (1 << k) - 1
        claims = proposition1_claims(n)
        protocol = HypercubeProtocol(n)
        trace = simulate(protocol, protocol.slots_for_packets(16))
        metrics = collect_metrics(trace, num_packets=16)
        assert metrics.max_startup_delay <= claims["playback_start"]
        assert metrics.max_buffer <= claims["buffer"]
        assert metrics.max_neighbors <= claims["neighbors"]
        rows.append(
            (n, k, metrics.max_startup_delay, claims["playback_start"],
             metrics.max_buffer, claims["buffer"],
             metrics.max_neighbors, claims["neighbors"])
        )
    return rows


def test_prop1_reproduction():
    rows = run()
    text = format_table(
        ["N", "k", "delay", "claim k+1", "buffer", "claim", "neighbors", "claim k"],
        rows,
        title="Proposition 1 — special-N hypercube, measured vs claimed",
    )
    report("prop1_special_n", text)
