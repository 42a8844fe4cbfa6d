"""The paper's closing open problem, quantified.

Section 4 asks whether an algorithm exists achieving, for arbitrary ``N``,
O(log N) worst-case delay AND O(1) buffers AND O(log N) neighbors
simultaneously.  The cascade gets the last two but pays O(log^2 N) delay.
This bench measures the actual gap: the cascade's worst delay divided by
``log2 N`` grows without bound (so the cascade is *not* the answer), while
for special ``N`` the single cube sits exactly on the target — the open
problem is precisely about closing that gap for every other ``N``.
"""

from __future__ import annotations

import math

from conftest import report

from repro.hypercube.cascade import expected_worst_delay
from repro.hypercube.cube import is_special_population
from repro.reporting.tables import format_table


def run():
    rows = []
    ratios = []
    for exponent in range(3, 17):
        # The worst populations make the greedy decomposition a full
        # descending chain of cubes k, k-1, ..., 1:
        # N = sum_{i=1..k} (2^i - 1) = 2^{k+1} - 2 - k.
        n = (1 << (exponent + 1)) - 2 - exponent
        delay = expected_worst_delay(n)
        ratio = delay / math.log2(n)
        ratios.append(ratio)
        rows.append((n, delay, round(math.log2(n), 1), round(ratio, 2)))
    # Special N sits exactly on the open problem's target.
    special_rows = []
    for exponent in (5, 10, 16):
        n = (1 << exponent) - 1
        assert is_special_population(n)
        delay = expected_worst_delay(n)
        special_rows.append((n, delay, round(delay / math.log2(n), 2)))
    return rows, ratios, special_rows


def test_open_problem_gap():
    rows, ratios, special_rows = run()
    # The delay/log N ratio grows: the cascade is super-logarithmic.
    assert ratios[-1] > 2 * ratios[0]
    assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[2:]))
    # Special N achieves ratio ~1: the target the open problem asks for.
    assert all(r[2] <= 1.3 for r in special_rows)  # (k+1)/k -> 1
    text = "\n".join(
        [
            format_table(
                ["N (chain worst case)", "cascade worst delay", "log2 N",
                 "delay / log2 N"],
                rows,
                title=(
                    "Open problem (paper §4): the cascade's delay is "
                    "super-logarithmic for arbitrary N"
                ),
            ),
            "",
            format_table(
                ["N = 2^k - 1", "delay", "delay / log2 N"],
                special_rows,
                title="…while special N already meets the O(log N) target:",
            ),
        ]
    )
    report("open_problem_gap", text)
