"""Baseline overlays from the paper's introduction (chain, single tree)."""

from repro.baselines.chain import (
    ChainProtocol,
    chain_average_delay,
    chain_delay,
    chain_worst_delay,
)
from repro.baselines.gossip import RandomGossipProtocol
from repro.baselines.single_tree import (
    SingleTreeProtocol,
    single_tree_depth,
    single_tree_worst_delay,
    sustainable_rate,
    tree_horizon,
    wasted_upload_fraction,
)

__all__ = [
    "ChainProtocol",
    "RandomGossipProtocol",
    "SingleTreeProtocol",
    "chain_average_delay",
    "chain_delay",
    "chain_worst_delay",
    "single_tree_depth",
    "single_tree_worst_delay",
    "sustainable_rate",
    "tree_horizon",
    "wasted_upload_fraction",
]
