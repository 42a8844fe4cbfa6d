"""Workload and sweep generators for the benchmark harness."""

from repro.workloads.arrivals import (
    poisson_arrival_slots,
    trace_arrival_slots,
    uniform_arrival_slots,
)
from repro.workloads.churn import (
    ChurnEvent,
    alternating_trace,
    apply_trace,
    flash_crowd_trace,
    random_trace,
)
from repro.workloads.faults import (
    bernoulli_drop,
    compose_any,
    link_blackout,
    slot_blackout,
)
from repro.workloads.sweeps import (
    complete_tree_populations,
    degree_sweep,
    figure4_populations,
    iter_configurations,
    log_spaced_populations,
    special_hypercube_populations,
)

__all__ = [
    "ChurnEvent",
    "alternating_trace",
    "apply_trace",
    "bernoulli_drop",
    "compose_any",
    "link_blackout",
    "slot_blackout",
    "complete_tree_populations",
    "degree_sweep",
    "figure4_populations",
    "flash_crowd_trace",
    "iter_configurations",
    "log_spaced_populations",
    "poisson_arrival_slots",
    "random_trace",
    "special_hypercube_populations",
    "trace_arrival_slots",
    "uniform_arrival_slots",
]
