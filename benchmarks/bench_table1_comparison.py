"""Table 1: multi-tree vs hypercube streaming on all four QoS axes.

Regenerates the paper's comparison table with *measured* values next to the
claimed asymptotics, for a representative population sweep.  Expected shape:

* multi-tree — delay and buffer grow with d log N; neighbors capped at 2d;
* hypercube (special N) — delay ~ log N, buffer ~ 2, neighbors ~ log N;
* hypercube (arbitrary N) — delay ~ log^2 N, buffer ~ 2, neighbors ~ log N.
"""

from __future__ import annotations

from conftest import report

from repro.core.engine import simulate
from repro.core.metrics import collect_metrics
from repro.hypercube.protocol import HypercubeCascadeProtocol, HypercubeProtocol
from repro.reporting.tables import format_table
from repro.theory.bounds import table1
from repro.trees import MultiTreeProtocol

DEGREE = 3
PACKETS = 24


def measure(protocol):
    trace = simulate(protocol, protocol.slots_for_packets(PACKETS))
    return collect_metrics(trace, num_packets=PACKETS)


def run_all():
    rows = []
    for n in (62, 100, 254, 500):
        tree = measure(MultiTreeProtocol(n, DEGREE))
        rows.append(
            ("multi-tree", n, tree.max_startup_delay, round(tree.avg_startup_delay, 1),
             tree.max_buffer, tree.max_neighbors)
        )
        cascade = measure(HypercubeCascadeProtocol(n))
        rows.append(
            ("hypercube arbitrary", n, cascade.max_startup_delay,
             round(cascade.avg_startup_delay, 1), cascade.max_buffer,
             cascade.max_neighbors)
        )
    for n in (63, 127, 511):
        special = measure(HypercubeProtocol(n))
        rows.append(
            ("hypercube special", n, special.max_startup_delay,
             round(special.avg_startup_delay, 1), special.max_buffer,
             special.max_neighbors)
        )
    return rows


def test_table1_reproduction():
    rows = run_all()
    by_scheme = {}
    for scheme, n, max_d, avg_d, buf, neigh in rows:
        by_scheme.setdefault(scheme, []).append((n, max_d, avg_d, buf, neigh))

    # Shape assertions mirroring Table 1:
    # hypercube buffers are O(1) — flat at 2 across N.
    for scheme in ("hypercube arbitrary", "hypercube special"):
        assert all(r[3] <= 2 for r in by_scheme[scheme])
    # multi-tree buffers grow with N (O(d log N)).
    tree_buffers = [r[3] for r in by_scheme["multi-tree"]]
    assert tree_buffers[-1] > 2
    # multi-tree neighbors capped at 2d; hypercube neighbors grow with log N.
    assert all(r[4] <= 2 * DEGREE for r in by_scheme["multi-tree"])
    special_neighbors = [r[4] for r in by_scheme["hypercube special"]]
    assert special_neighbors == sorted(special_neighbors)
    assert special_neighbors[-1] == 9  # k = log2(512)
    # special-N hypercube beats multi-tree on delay; arbitrary-N loses at
    # matched N (the log^2 penalty).
    tree_500 = next(r for r in by_scheme["multi-tree"] if r[0] == 500)
    casc_500 = next(r for r in by_scheme["hypercube arbitrary"] if r[0] == 500)
    spec_511 = next(r for r in by_scheme["hypercube special"] if r[0] == 511)
    assert spec_511[1] < tree_500[1] < casc_500[1]

    claims = table1(500, DEGREE)
    lines = ["Table 1 — claimed asymptotics:"]
    for row in claims:
        lines.append(
            f"  {row.scheme:24s} delay {row.max_delay:14s} buffer {row.buffer_size:12s} "
            f"neighbors {row.num_neighbors}"
        )
    lines.append("")
    lines.append(
        format_table(
            ["scheme", "N", "max delay", "avg delay", "max buffer", "max neighbors"],
            rows,
            title="Table 1 — measured (packet-level simulation, d=3):",
        )
    )
    report("table1_comparison", "\n".join(lines))
