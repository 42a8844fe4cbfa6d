"""The multi-tree streaming scheme (paper Sections 2 and appendix).

``d`` interior-disjoint ``d``-ary trees span all receivers; packet ``p``
travels down tree ``T_{p mod d}`` under a collision-free round-robin schedule.
Provides both constructions (structured / greedy), the transmission schedule,
closed-form delay/buffer analysis (Theorems 2-3), an engine-driven protocol,
and churn maintenance (appendix add/delete with lazy variants).
"""

from repro.trees.analysis import (
    MultiTreeQoS,
    all_playback_delays,
    analyze,
    average_delay,
    buffer_requirements,
    optimal_startup_delay,
    per_tree_delays,
    playback_delay,
    theorem2_bound,
    theorem2_height,
    theorem3_lower_bound,
    tree_delay,
    worst_case_delay,
)
from repro.trees.distribution import (
    DelayDistribution,
    buffer_histogram,
    delay_distribution,
    delay_histogram,
    delays_by_depth,
)
from repro.trees.dynamics import ChurnReport, DynamicForest
from repro.trees.live import (
    ChurnHiccupReport,
    ChurningMultiTreeProtocol,
    NodeHiccups,
    ScheduledChurn,
    churn_experiment,
    churn_hiccup_report,
    random_churn_schedule,
)
from repro.trees.forest import SOURCE_ID, MultiTreeForest
from repro.trees.greedy import build_greedy_trees, child_slot_of, greedy_layouts, required_parity
from repro.trees.groups import GroupPartition, interior_count, padded_population
from repro.trees.protocol import MultiTreeProtocol
from repro.trees.schedule import (
    LIVE_PREBUFFERED,
    PRERECORDED,
    ScheduleParams,
    arrival_trace,
    first_arrival_slots,
    multi_tree_horizon,
    pipelined_live_collisions,
    slot_transmissions,
)
from repro.trees.structured import build_structured_trees, structured_layouts
from repro.trees.vectorized import (
    figure4_series_fast,
    first_arrival_slots_np,
    playback_delays_np,
    worst_case_delay_fast,
)
from repro.trees.tree import StreamTree

__all__ = [
    "LIVE_PREBUFFERED",
    "PRERECORDED",
    "SOURCE_ID",
    "ChurnHiccupReport",
    "DelayDistribution",
    "ChurnReport",
    "ChurningMultiTreeProtocol",
    "DynamicForest",
    "NodeHiccups",
    "ScheduledChurn",
    "churn_experiment",
    "churn_hiccup_report",
    "random_churn_schedule",
    "GroupPartition",
    "MultiTreeForest",
    "MultiTreeProtocol",
    "MultiTreeQoS",
    "ScheduleParams",
    "StreamTree",
    "all_playback_delays",
    "analyze",
    "arrival_trace",
    "average_delay",
    "buffer_requirements",
    "buffer_histogram",
    "build_greedy_trees",
    "build_structured_trees",
    "child_slot_of",
    "delay_distribution",
    "delay_histogram",
    "delays_by_depth",
    "figure4_series_fast",
    "first_arrival_slots_np",
    "first_arrival_slots",
    "greedy_layouts",
    "interior_count",
    "multi_tree_horizon",
    "optimal_startup_delay",
    "padded_population",
    "per_tree_delays",
    "pipelined_live_collisions",
    "playback_delay",
    "playback_delays_np",
    "required_parity",
    "slot_transmissions",
    "structured_layouts",
    "theorem2_bound",
    "theorem2_height",
    "theorem3_lower_bound",
    "tree_delay",
    "worst_case_delay",
    "worst_case_delay_fast",
]
