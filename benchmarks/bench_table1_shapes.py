"""Table 1 capstone: the asymptotic *shapes* identified from measurements.

Rather than eyeballing growth, fit each measured series against candidate
growth laws (constant / log / log^2 / linear) by least squares and let the
best fit name the asymptotic — the machine-checked version of Table 1's
columns.
"""

from __future__ import annotations

from conftest import report

from repro.core.engine import simulate
from repro.core.metrics import collect_metrics
from repro.hypercube.cascade import expected_average_delay, expected_worst_delay
from repro.hypercube.protocol import HypercubeProtocol
from repro.reporting.tables import format_table
from repro.theory.scaling import best_scaling
from repro.trees.forest import MultiTreeForest
from repro.trees.analysis import all_playback_delays, buffer_requirements
from repro.workloads.sweeps import special_hypercube_populations

TREE_POPULATIONS = [16, 32, 64, 128, 256, 512, 1024, 2048]
CUBE_POPULATIONS = special_hypercube_populations(2047)[2:]  # 7 .. 2047
PACKETS = 16


def tree_series():
    max_delay, max_buffer, neighbors = [], [], []
    for n in TREE_POPULATIONS:
        forest = MultiTreeForest.construct(n, 2)
        delays = all_playback_delays(forest)
        max_delay.append(max(delays.values()))
        max_buffer.append(max(buffer_requirements(forest).values()))
        neighbors.append(forest.max_neighbor_count())
    return max_delay, max_buffer, neighbors


def cube_series():
    max_delay, max_buffer, neighbors = [], [], []
    for n in CUBE_POPULATIONS:
        if n <= 255:
            protocol = HypercubeProtocol(n)
            trace = simulate(protocol, protocol.slots_for_packets(PACKETS))
            metrics = collect_metrics(trace, num_packets=PACKETS)
            max_delay.append(metrics.max_startup_delay)
            max_buffer.append(metrics.max_buffer)
            neighbors.append(metrics.max_neighbors)
        else:
            # Closed form for the big populations (validated to match the
            # simulation elsewhere in the suite).
            max_delay.append(expected_worst_delay(n))
            max_buffer.append(2)
            neighbors.append(n.bit_length())
    return max_delay, max_buffer, neighbors


def run():
    t_delay, t_buffer, t_neighbors = tree_series()
    c_delay, c_buffer, c_neighbors = cube_series()
    shapes = ["constant", "log", "log^2", "linear"]
    rows = [
        ("multi-tree d=2", "max delay", "O(d log N)",
         best_scaling(TREE_POPULATIONS, t_delay, shapes=shapes).shape),
        ("multi-tree d=2", "max buffer", "O(d log N)",
         best_scaling(TREE_POPULATIONS, t_buffer, shapes=shapes).shape),
        ("multi-tree d=2", "neighbors", "O(d)",
         best_scaling(TREE_POPULATIONS, t_neighbors, shapes=shapes).shape),
        ("hypercube special", "max delay", "O(log N)",
         best_scaling(CUBE_POPULATIONS, c_delay, shapes=shapes).shape),
        ("hypercube special", "max buffer", "O(1)",
         best_scaling(CUBE_POPULATIONS, c_buffer, shapes=shapes).shape),
        ("hypercube special", "neighbors", "O(log N)",
         best_scaling(CUBE_POPULATIONS, c_neighbors, shapes=shapes).shape),
        ("hypercube cascade avg", "avg delay", "O(log N)",
         best_scaling(
             TREE_POPULATIONS,
             [expected_average_delay(n) for n in TREE_POPULATIONS],
             shapes=shapes,
         ).shape),
    ]
    return rows


def test_table1_shapes():
    rows = run()
    expected = {
        ("multi-tree d=2", "max delay"): "log",
        ("multi-tree d=2", "max buffer"): "log",
        ("multi-tree d=2", "neighbors"): "constant",
        ("hypercube special", "max delay"): "log",
        ("hypercube special", "max buffer"): "constant",
        ("hypercube special", "neighbors"): "log",
        ("hypercube cascade avg", "avg delay"): "log",
    }
    for scheme, metric, _, fitted in rows:
        assert fitted == expected[(scheme, metric)], (scheme, metric, fitted)
    text = format_table(
        ["scheme", "metric", "Table 1 claims", "fitted shape"],
        rows,
        title="Table 1 asymptotics, identified from measured series by "
        "least-squares shape fitting",
    )
    report("table1_shapes", text)
