"""The hypercube streaming schemes (paper Section 3).

For ``N = 2^k - 1`` the receivers plus the source form a ``k``-cube whose
vertices pair along a rotating dimension each slot and exchange the newest
packet the partner lacks — ``O(1)`` buffers, ``O(log N)`` delay and neighbors
(Proposition 1).  For arbitrary ``N`` a cascade of shrinking cubes chains the
spare capacity of each cube's source-paired port into the next cube
(Proposition 2, Theorem 4), and a ``d``-capacity source can run ``d`` parallel
cascades over near-equal groups.
"""

from repro.hypercube.analysis import (
    HypercubeQoS,
    analyze_cascade,
    analyze_grouped,
    average_delay_check,
    grouped_delay_bounds,
    proposition1_claims,
    special_populations,
)
from repro.hypercube.cascade import (
    CubeSpec,
    cascade_horizon,
    cascade_plan,
    expected_average_delay,
    expected_worst_delay,
    proposition2_neighbor_bound,
    theorem4_bound,
    worst_case_delay_bound,
)
from repro.hypercube.dynamics import CascadeMembership, MembershipEvent, optimal_delay_for
from repro.hypercube.cube import (
    CubeExchange,
    CubeTransfer,
    dimension_for_population,
    dimension_of_slot,
    is_special_population,
    partner_of,
    slot_pairs,
)
from repro.hypercube.protocol import (
    SOURCE_ID,
    GroupedHypercubeProtocol,
    HypercubeCascadeProtocol,
    HypercubeProtocol,
)

__all__ = [
    "SOURCE_ID",
    "CascadeMembership",
    "CubeExchange",
    "MembershipEvent",
    "optimal_delay_for",
    "CubeSpec",
    "CubeTransfer",
    "GroupedHypercubeProtocol",
    "HypercubeCascadeProtocol",
    "HypercubeProtocol",
    "HypercubeQoS",
    "analyze_cascade",
    "analyze_grouped",
    "average_delay_check",
    "cascade_horizon",
    "cascade_plan",
    "dimension_for_population",
    "dimension_of_slot",
    "expected_average_delay",
    "expected_worst_delay",
    "grouped_delay_bounds",
    "is_special_population",
    "partner_of",
    "proposition1_claims",
    "proposition2_neighbor_bound",
    "slot_pairs",
    "special_populations",
    "theorem4_bound",
    "worst_case_delay_bound",
]
