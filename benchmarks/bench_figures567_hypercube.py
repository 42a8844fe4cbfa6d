"""Figures 5-7: the hypercube scheme's worked example (N = 7, k = 3).

* Figure 5 — the doubling ladder: packet-holder counts 1, 2, 4, 7 down the
  in-flight window, doubling each slot.
* Figure 6 — O(1) buffer occupancy: each node stores at most 2 live packets
  while consuming one per slot.
* Figure 7 — the dimension-cycling pairing pattern over the 3-cube.
"""

from __future__ import annotations

from conftest import report

from repro.core.engine import simulate
from repro.core.events import communication_pairs
from repro.core.metrics import collect_metrics
from repro.hypercube.cube import CubeExchange, slot_pairs
from repro.hypercube.protocol import HypercubeProtocol


def test_figure5_doubling_ladder():
    def ladder():
        cube = CubeExchange(3)
        for t in range(30):
            cube.step(inject=t)
        counts: dict[int, int] = {}
        for v in range(1, 8):
            for p in cube.holdings(v):
                counts[p] = counts.get(p, 0) + 1
        return counts

    counts = ladder()
    newest = max(counts)
    profile = [counts[newest - i] for i in range(4)]
    assert profile == [1, 2, 4, 7]
    report(
        "figure5_doubling",
        "\n".join(
            [
                "Figure 5 — doubling state (N=7, k=3) at a steady-state slot:",
                f"  newest packet ({newest}):   held by {profile[0]} node",
                f"  packet {newest - 1}:            held by {profile[1]} nodes",
                f"  packet {newest - 2}:            held by {profile[2]} nodes",
                f"  packet {newest - 3} and older:  held by all {profile[3]} nodes",
                "  (each slot doubles every in-flight packet's holder count)",
            ]
        ),
    )


def test_figure6_buffer_occupancy():
    def measure():
        protocol = HypercubeProtocol(7)
        trace = simulate(protocol, protocol.slots_for_packets(20))
        return collect_metrics(trace, num_packets=20)

    metrics = measure()
    assert metrics.max_buffer <= 2
    lines = [
        "Figure 6 — O(1) buffer space (N=7, k=3):",
        f"  peak buffer over all nodes/slots: {metrics.max_buffer} packets (paper: 2)",
        f"  worst-case startup delay: {metrics.max_startup_delay} (paper: after slot k+1 = 4)",
    ]
    for node, summary in sorted(metrics.per_node.items()):
        lines.append(
            f"  node {node}: start={summary.startup_delay}, buffer={summary.buffer_peak}"
        )
    report("figure6_buffers", "\n".join(lines))


def test_figure7_pairing_pattern():
    def measure():
        protocol = HypercubeProtocol(7)
        trace = simulate(protocol, 6)
        return communication_pairs(trace.transmissions)

    pairs_by_slot = measure()
    lines = ["Figure 7 — hypercube pairing (IDs 0..7, dimension = slot mod 3):"]
    for slot in range(3):
        expected = {frozenset(p) for p in slot_pairs(3, slot)}
        seen = pairs_by_slot[slot]
        assert seen <= expected, f"slot {slot} communicated outside its dimension"
        rendered = ", ".join(
            f"{min(p)}-{max(p)}" for p in sorted(expected, key=min)
        )
        lines.append(f"  slots ≡ {slot} (mod 3): {rendered}")
    report("figure7_pairing", "\n".join(lines))
