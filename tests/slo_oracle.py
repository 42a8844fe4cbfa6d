"""Row-object oracle for the columnar session SLOs.

Until v16.0.0 ``SessionColumns.slos()`` built one :class:`SessionSLO` per
scored session and the fleet report kept a sorted tuple of them.  The
aggregator now keeps the same values as :class:`SessionSLOTable` columns;
this module keeps the v15 row builder, so tests can hold every table row
equal to the object it replaced.
"""

from __future__ import annotations

import numpy as np

from repro.service.slo import SessionColumns, SessionSLO


def row_histograms(matrix: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """Per-row ``(value, count)`` tuples of a non-negative int matrix."""
    num_rows = matrix.shape[0]
    width = int(matrix.max()) + 1
    offsets = np.arange(num_rows, dtype=np.int64)[:, None] * width
    counts = np.bincount(
        (matrix.astype(np.int64) + offsets).ravel(), minlength=num_rows * width
    ).reshape(num_rows, width)
    rows, values = np.nonzero(counts)
    pairs = list(zip(values.tolist(), counts[rows, values].tolist()))
    bounds = np.searchsorted(rows, np.arange(num_rows + 1)).tolist()
    return [tuple(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def slos(columns: SessionColumns) -> list[SessionSLO]:
    """One :class:`SessionSLO` per row of a scored unit, in row order."""
    total = len(columns)
    rows = 1 if columns.loss_free else total  # loss-free rows share one tuple
    histograms = [
        row_histograms(matrix[:rows]) * (total // rows)
        for matrix in (columns.node_delays, columns.node_buffers)
    ]
    values = [
        column.tolist() for column in (
            columns.wait_slots, columns.startup_delay, columns.rebuffer_ratio,
            columns.delay_p50, columns.delay_p95, columns.delay_p99,
            columns.buffer_p50, columns.buffer_p99, columns.goodput,
            columns.num_packets,
        )
    ]
    num_nodes = columns.node_delays.shape[1]
    return [
        SessionSLO(*row[:12], num_nodes, *row[12:])
        for row in zip(
            columns.session_ids, columns.labels, columns.statuses, *values,
            *histograms, columns.qoe or (None,) * total,
        )
    ]
