"""Theorem 4: the hypercube cascade's average delay is at most 2 log2 N."""

from __future__ import annotations

from conftest import report

from repro.hypercube.cascade import expected_average_delay, theorem4_bound
from repro.reporting.series import ascii_plot
from repro.reporting.tables import format_table


def run():
    populations = list(range(2, 2001, 18))
    measured = [expected_average_delay(n) for n in populations]
    bounds = [theorem4_bound(n) for n in populations]
    for n, avg, bound in zip(populations, measured, bounds):
        assert avg <= bound, f"Theorem 4 violated at N={n}"
    return populations, measured, bounds


def test_theorem4_reproduction():
    populations, measured, bounds = run()
    rows = [
        (n, round(avg, 2), round(b, 2))
        for n, avg, b in list(zip(populations, measured, bounds))[::12]
    ]
    text = "\n".join(
        [
            ascii_plot(
                populations,
                {"average delay": measured, "2 log2 N": bounds},
                title="Theorem 4 — cascade average delay vs 2 log2 N",
                height=14,
            ),
            "",
            format_table(["N", "avg delay", "2 log2 N"], rows),
        ]
    )
    report("theorem4_hc_avg", text)
