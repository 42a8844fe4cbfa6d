"""Proposition 2: arbitrary-N cascade — O(log N) neighbors, O(log^2 N) worst
delay, two-packet buffers."""

from __future__ import annotations

import math

from conftest import report

from repro.core.engine import simulate
from repro.core.metrics import collect_metrics
from repro.hypercube.cascade import (
    cascade_plan,
    proposition2_neighbor_bound,
    worst_case_delay_bound,
)
from repro.hypercube.protocol import HypercubeCascadeProtocol
from repro.reporting.tables import format_table


def run():
    rows = []
    for n in (10, 25, 60, 100, 250, 500, 1000):
        protocol = HypercubeCascadeProtocol(n)
        trace = simulate(protocol, protocol.slots_for_packets(10))
        metrics = collect_metrics(trace, num_packets=10)
        delay_bound = worst_case_delay_bound(n)
        neighbor_bound = proposition2_neighbor_bound(n)
        assert metrics.max_startup_delay <= delay_bound
        assert metrics.max_neighbors <= neighbor_bound
        assert metrics.max_buffer <= 2
        rows.append(
            (n, len(cascade_plan(n)), metrics.max_startup_delay,
             round(delay_bound, 1), metrics.max_buffer,
             metrics.max_neighbors, neighbor_bound,
             round(3 * math.log2(n), 1))
        )
    return rows


def test_prop2_reproduction():
    rows = run()
    # Delay grows clearly sub-quadratically in log N but super-logarithmically
    # at cube boundaries; neighbors stay within O(log N).
    delays = [r[2] for r in rows]
    assert delays == sorted(delays)
    text = format_table(
        ["N", "cubes", "max delay", "O(log^2) bound", "buffer",
         "max neighbors", "bound", "3 log2 N"],
        rows,
        title="Proposition 2 — arbitrary-N cascade, measured vs bounds",
    )
    report("prop2_arbitrary_n", text)
