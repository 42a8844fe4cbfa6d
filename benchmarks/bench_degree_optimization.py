"""Section 2.3, Tree Degree Optimization: F(d) is minimized at d in {2, 3}."""

from __future__ import annotations

from conftest import report

from repro.reporting.tables import format_table
from repro.theory.degree import (
    crossover_population,
    delay_approximation,
    delay_derivative,
    f2,
    f3,
    optimal_degree,
)


def run():
    rows = []
    for n in (16, 64, 322, 1000, 10_000, 1_000_000):
        values = {d: delay_approximation(n, d) for d in (2, 3, 4, 5, 8)}
        rows.append(
            (n, *(round(values[d], 2) for d in (2, 3, 4, 5, 8)), optimal_degree(n))
        )
        assert optimal_degree(n) in (2, 3)
    return rows


def test_degree_optimization_reproduction():
    rows = run()
    crossover = crossover_population()
    derivative_rows = [
        (n, round(delay_derivative(n, 2), 3), round(delay_derivative(n, 3), 3))
        for n in (100, 1000, 100_000)
    ]
    assert all(r[1] < 0 < r[2] for r in derivative_rows)
    text = "\n".join(
        [
            format_table(
                ["N", "F(2)", "F(3)", "F(4)", "F(5)", "F(8)", "optimal d"],
                rows,
                title="Degree optimization — F(d) = d log_d(N(1 - 1/d))",
            ),
            "",
            format_table(
                ["N", "dF/dd at 2", "dF/dd at 3"],
                derivative_rows,
                title="Derivative signs (paper: negative at 2, positive for d >= 3)",
            ),
            "",
            f"F(3) < F(2) from N = {crossover} onward "
            f"(F(2)={f2(crossover):.3f}, F(3)={f3(crossover):.3f}); the paper "
            "still recommends d = 2 in practice since the curves stay close.",
        ]
    )
    report("degree_optimization", text)
