"""Vectorized (NumPy) delay analytics for large parameter sweeps.

The pure-Python recurrences in :mod:`repro.trees.schedule` are exact but loop
per position; for sweeps like Figure 4 (thousands of populations) the same
recurrences vectorize level by level: all positions at one depth derive their
arrival slots from their parents' in a single array expression
(``send = parent + 1 + ((child_index - parent - 1) mod d)``), cutting the
Python-level work from O(N) to O(height) operations per tree.

Cross-validated against the scalar implementation in the test suite;
benchmarked in ``bench_vectorized_speedup.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConstructionError
from repro.trees.forest import MultiTreeForest
from repro.trees.groups import padded_population

__all__ = [
    "first_arrival_slots_np",
    "playback_delays_np",
    "worst_case_delay_fast",
    "figure4_series_fast",
]


def first_arrival_slots_np(size: int, degree: int, *, latency: int = 1) -> np.ndarray:
    """First-packet arrival slot for positions ``1..size`` of a d-ary tree.

    Position-indexed (entry ``i`` is position ``i + 1``); depends only on the
    tree *shape*, not on which node occupies which position.  The vectorized
    form of :func:`repro.trees.schedule.first_arrival_slots`, link
    ``latency`` included.
    """
    if size < 1:
        raise ConstructionError(f"size must be >= 1, got {size}")
    if degree < 1:
        raise ConstructionError(f"degree must be >= 1, got {degree}")
    d = degree
    lag = latency - 1  # a send in slot s arrives at the end of slot s + lag
    arrivals = np.empty(size, dtype=np.int64)
    # Level 1: positions 1..d are sent to in slots 0..d-1 (child index order).
    top = min(d, size)
    arrivals[:top] = np.arange(top) + lag
    level_start = 1  # first position of the current parent level
    level_len = top
    while True:
        child_start = d * level_start + 1  # first child position
        if child_start > size:
            break
        parents = arrivals[level_start - 1 : level_start - 1 + level_len]
        # Children of parent p occupy positions d*p + 1 .. d*p + d with child
        # indices 0..d-1; vectorize over the whole level at once.
        child_count = min(level_len * d, size - child_start + 1)
        parent_rep = np.repeat(parents, d)[:child_count]
        child_index = np.tile(np.arange(d), level_len)[:child_count]
        send = parent_rep + 1 + (child_index - parent_rep - 1) % d
        arrivals[child_start - 1 : child_start - 1 + child_count] = send + lag
        level_start = child_start
        level_len = child_count
    return arrivals


def playback_delays_np(forest: MultiTreeForest) -> np.ndarray:
    """Paper-rule playback delays ``a(i)`` for nodes ``1..N`` (vectorized).

    Entry ``i`` is node ``i + 1``'s delay; identical to
    :func:`repro.trees.analysis.all_playback_delays`.
    """
    size = forest.partition.padded_size
    d = forest.degree
    shape_arrivals = first_arrival_slots_np(size, d)
    num_real = forest.num_nodes
    delays = np.zeros(num_real, dtype=np.int64)
    for tree in forest.trees:
        layout = np.asarray(tree.layout, dtype=np.int64)
        real_mask = layout <= num_real
        node_idx = layout[real_mask] - 1
        arrivals = shape_arrivals[real_mask] + 1
        np.maximum.at(delays, node_idx, arrivals)
    return delays


def worst_case_delay_fast(num_nodes: int, degree: int) -> int:
    """Worst-case playback delay without building node layouts at all.

    The worst node's delay is determined by the deepest *positions*: every
    real node occupies some position in every tree, and the construction
    places the worst real node at the last real position of some tree, so
    ``max_i a(i)`` equals the maximum first-arrival over real positions,
    plus one.  Exactness is asserted against the full construction in the
    test suite.
    """
    size = padded_population(num_nodes, degree)
    arrivals = first_arrival_slots_np(size, degree)
    num_dummies = size - num_nodes
    if num_dummies == 0:
        return int(arrivals.max()) + 1
    # Dummies occupy d tail positions per tree, rotated so that across trees
    # every tail position also hosts real nodes; the worst real delay is
    # still the global maximum as long as any tail position is real in some
    # tree — which the rotation guarantees for num_dummies < d.
    return int(arrivals.max()) + 1


def figure4_series_fast(populations, degrees) -> dict[str, list[int]]:
    """The Figure 4 sweep via the vectorized path."""
    return {
        f"degree {d}": [worst_case_delay_fast(n, d) for n in populations]
        for d in degrees
    }
