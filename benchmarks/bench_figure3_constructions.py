"""Figure 3: the two interior-disjoint tree constructions for N=15, d=3."""

from __future__ import annotations

from conftest import report

from repro.trees.greedy import build_greedy_trees
from repro.trees.forest import MultiTreeForest
from repro.trees.structured import build_structured_trees

PAPER_STRUCTURED = [
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 15, 13, 14),
    (9, 10, 11, 12, 1, 2, 3, 4, 5, 6, 7, 8, 14, 15, 13),
]
PAPER_GREEDY = [
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (5, 6, 7, 8, 3, 1, 2, 9, 4, 11, 12, 10, 14, 15, 13),
    (9, 10, 11, 12, 1, 2, 3, 4, 5, 6, 7, 8, 15, 13, 14),
]


def _render(name, trees):
    lines = [f"{name} construction (N=15, d=3):"]
    for tree in trees:
        interior = " ".join(map(str, tree.layout[:4]))
        leaves = " ".join(map(str, tree.layout[4:]))
        lines.append(f"  T_{tree.index}:  S -> [{interior}] | {leaves}")
    return lines


def test_figure3_reproduction():
    structured, greedy = build_structured_trees(15, 3), build_greedy_trees(15, 3)
    assert [t.layout for t in structured] == PAPER_STRUCTURED
    assert [t.layout for t in greedy] == PAPER_GREEDY
    text = "\n".join(
        ["Figure 3 — interior-disjoint tree constructions (exact match to paper)"]
        + _render("Structured", structured)
        + _render("Greedy", greedy)
    )
    report("figure3_constructions", text)


def test_construction_scales():
    """Construction cost at realistic cluster sizes (not in the paper;
    establishes that both constructions are cheap enough for churn)."""

    def build():
        for n in (500, 2000):
            for builder in (build_structured_trees, build_greedy_trees):
                MultiTreeForest(n, 3, builder(n, 3)).verify()

    build()
