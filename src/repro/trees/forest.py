"""The multi-tree forest: ``d`` interior-disjoint trees plus their invariants.

A :class:`MultiTreeForest` bundles the ``d`` trees of either construction with
the group partition that produced them and exposes the paper's structural
invariants as checkable predicates:

* **interior-disjointness** — no node is interior in more than one tree (and
  every interior node has exactly ``d`` children there);
* **position congruence** — no node occupies two positions congruent modulo
  ``d`` across trees, the condition making the round-robin schedule
  receive-collision-free;
* **dummy leaves** — padding nodes appear only in leaf positions;
* **bounded neighbors** — each node communicates with at most ``2d`` others
  (``d`` parents plus ``d`` children; the paper's ``O(d)`` claim).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.errors import ConstructionError
from repro.trees.greedy import build_greedy_trees
from repro.trees.groups import GroupPartition, padded_population
from repro.trees.positions import tree_height
from repro.trees.structured import build_structured_trees
from repro.trees.tree import StreamTree

__all__ = ["MultiTreeForest", "Construction"]

#: Source node id used by the multi-tree protocols.
SOURCE_ID = 0

Construction = str  # "structured" | "greedy"

_BUILDERS = {
    "structured": build_structured_trees,
    "greedy": build_greedy_trees,
}


def _builder(construction: Construction):
    try:
        return _BUILDERS[construction]
    except KeyError:
        raise ConstructionError(
            f"unknown construction {construction!r}; choose from {sorted(_BUILDERS)}"
        ) from None


class MultiTreeForest:
    """``d`` interior-disjoint streaming trees over receivers ``1..N``.

    Build via :meth:`construct` (or pass pre-built trees, e.g. after churn
    operations from :mod:`repro.trees.dynamics`).
    """

    def __init__(self, num_nodes: int, degree: int, trees: Sequence[StreamTree]) -> None:
        if len(trees) != degree:
            raise ConstructionError(f"expected {degree} trees, got {len(trees)}")
        self.num_nodes = num_nodes
        self.degree = degree
        self.partition = GroupPartition(num_nodes, degree)
        self.trees = list(trees)
        expected = self.partition.padded_size
        for tree in self.trees:
            if tree.size != expected:
                raise ConstructionError(
                    f"tree T_{tree.index} has {tree.size} positions, expected {expected}"
                )

    @classmethod
    def construct(
        cls, num_nodes: int, degree: int, construction: Construction = "structured"
    ) -> MultiTreeForest:
        """Build the forest with the named construction ("structured"/"greedy")."""
        return cls(num_nodes, degree, _builder(construction)(num_nodes, degree))

    @staticmethod
    def height_of(
        num_nodes: int, degree: int, construction: Construction = "structured"
    ) -> int:
        """The :attr:`height` of :meth:`construct`'s forest, by arithmetic:
        every tree holds ``padded_population(N, d)`` positions.  Rejects what
        :meth:`construct` rejects, in the same order."""
        _builder(construction)
        return tree_height(padded_population(num_nodes, degree), degree)

    # ------------------------------------------------------------- populations
    @property
    def real_nodes(self) -> range:
        return range(1, self.num_nodes + 1)

    @property
    def padded_nodes(self) -> range:
        return range(1, self.partition.padded_size + 1)

    def is_dummy(self, node: int) -> bool:
        return self.partition.is_dummy(node)

    # -------------------------------------------------------------- invariants
    def verify(self) -> None:
        """Check every structural invariant; raises ``ConstructionError`` on failure."""
        self.verify_populations()
        self.verify_interior_disjoint()
        self.verify_position_congruence()
        self.verify_dummy_leaves()

    def verify_populations(self) -> None:
        expected = set(self.padded_nodes)
        for tree in self.trees:
            actual = set(tree.layout)
            if actual != expected:
                missing = sorted(expected - actual)[:5]
                extra = sorted(actual - expected)[:5]
                raise ConstructionError(
                    f"T_{tree.index} population mismatch: missing {missing}, extra {extra}"
                )

    def verify_interior_disjoint(self) -> None:
        seen: dict[int, int] = {}
        for tree in self.trees:
            for node in tree.interior_nodes():
                if node in seen:
                    raise ConstructionError(
                        f"node {node} is interior in both T_{seen[node]} and T_{tree.index}"
                    )
                seen[node] = tree.index

    def verify_position_congruence(self) -> None:
        d = self.degree
        for node in self.padded_nodes:
            residues: dict[int, int] = {}
            for tree in self.trees:
                residue = tree.position_of(node) % d
                if residue in residues:
                    raise ConstructionError(
                        f"node {node} occupies congruent positions (mod {d}) in "
                        f"T_{residues[residue]} and T_{tree.index} — schedule would collide"
                    )
                residues[residue] = tree.index

    def verify_dummy_leaves(self) -> None:
        for tree in self.trees:
            for node in tree.interior_nodes():
                if self.is_dummy(node):
                    raise ConstructionError(
                        f"dummy node {node} is interior in T_{tree.index}"
                    )

    # ------------------------------------------------------------------ queries
    def positions_of(self, node: int) -> list[int]:
        """Position of ``node`` in each of the ``d`` trees, tree order."""
        return [tree.position_of(node) for tree in self.trees]

    def interior_tree_of(self, node: int) -> int | None:
        """Index of the tree where ``node`` is interior, or None (all-leaf node)."""
        for tree in self.trees:
            if tree.is_interior(node):
                return tree.index
        return None

    def neighbors_of(self, node: int) -> set[int]:
        """Real nodes ``node`` exchanges packets with across all trees.

        At most ``2d``: up to ``d`` distinct parents plus the ``d`` children in
        the single tree where the node is interior.  The source (parent of
        root-children) and dummies are excluded.
        """
        neighbors: set[int] = set()
        for tree in self.trees:
            parent = tree.parent_of(node)
            if parent is not None and not self.is_dummy(parent):
                neighbors.add(parent)
            for child in tree.children_of(node):
                if not self.is_dummy(child):
                    neighbors.add(child)
        neighbors.discard(node)
        return neighbors

    def max_neighbor_count(self) -> int:
        """Worst-case neighbor count over real nodes (paper: at most 2d)."""
        return max(len(self.neighbors_of(n)) for n in self.real_nodes)

    @property
    def height(self) -> int:
        """Common height of the (padded) trees."""
        return self.trees[0].height

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MultiTreeForest(N={self.num_nodes}, d={self.degree}, "
            f"padded={self.partition.padded_size})"
        )
