"""Engineering bench: vectorized vs scalar Figure 4 sweep.

Not a paper experiment — this certifies the NumPy level-order recurrence
(`repro.trees.vectorized`) produces identical results to the per-position
scalar path while being substantially faster on the full Figure 4 sweep,
following the profile-then-vectorize workflow of the HPC guides.  The
result file states the bound; the measured times appear only in the assert
message.
"""

from __future__ import annotations

from conftest import report

from repro.obs import Timer
from repro.trees.analysis import worst_case_delay
from repro.trees.forest import MultiTreeForest
from repro.trees.vectorized import figure4_series_fast
from repro.workloads.sweeps import degree_sweep, figure4_populations

MIN_SPEEDUP = 2.0


def scalar_sweep(populations, degrees):
    return {
        f"degree {d}": [
            worst_case_delay(MultiTreeForest.construct(n, d)) for n in populations
        ]
        for d in degrees
    }


def test_vectorized_sweep_equivalent_and_faster():
    populations = figure4_populations(2000, step=100)
    degrees = degree_sweep()

    with Timer() as scalar_timer:
        scalar = scalar_sweep(populations, degrees)

    fast = figure4_series_fast(populations, degrees)  # warm-up
    with Timer() as vector_timer:
        figure4_series_fast(populations, degrees)

    assert fast == scalar  # bit-identical results
    speedup = scalar_timer.elapsed / max(vector_timer.elapsed, 1e-9)
    assert speedup > MIN_SPEEDUP, (
        f"vectorized path only {speedup:.1f}x faster (floor {MIN_SPEEDUP:.0f}x): "
        f"scalar {scalar_timer.elapsed * 1e3:.1f} ms, vectorized "
        f"{vector_timer.elapsed * 1e3:.1f} ms"
    )
    report(
        "vectorized_speedup",
        "\n".join(
            [
                "Vectorized Figure 4 sweep (engineering check):",
                f"  {len(populations)} populations x degrees {list(degrees)}",
                "  outputs: identical to the scalar per-position path",
                f"  asserted: vectorized > {MIN_SPEEDUP:.0f}x faster than scalar",
            ]
        ),
    )
