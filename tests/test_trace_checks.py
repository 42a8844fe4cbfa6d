"""Tests for post-hoc trace checking and the ASCII tree renderer."""

from __future__ import annotations

import pytest

from repro.check import check_trace
from repro.cluster.supertree import build_supertree
from repro.core.engine import simulate
from repro.core.packet import Transmission
from repro.hypercube.protocol import HypercubeProtocol
from repro.reporting.treeviz import render_forest, render_supertree, render_tree
from repro.trees import MultiTreeProtocol
from repro.trees.dynamics import DynamicForest
from repro.trees.forest import MultiTreeForest


def unit(node):
    return 1


def check(trace, protocol=None, **kwargs):
    """``check_trace`` under ``protocol``'s capacities (1 per node by default)."""
    return check_trace(
        trace,
        send_capacity=protocol.send_capacity if protocol else unit,
        recv_capacity=protocol.recv_capacity if protocol else unit,
        **kwargs,
    )


class TestAudit:
    def test_valid_multi_tree_trace_passes(self):
        protocol = MultiTreeProtocol(15, 3)
        trace = simulate(protocol, protocol.slots_for_packets(9))
        report = check(trace, protocol)
        assert report.ok, report.violations
        assert report.num_transmissions == len(trace.transmissions)

    def test_valid_hypercube_trace_passes(self):
        protocol = HypercubeProtocol(15)
        trace = simulate(protocol, 30)
        assert check(trace).ok

    @pytest.mark.parametrize(
        "factory",
        [lambda: MultiTreeProtocol(15, 3), lambda: HypercubeProtocol(15)],
        ids=["multi-tree", "hypercube"],
    )
    def test_unvalidated_honest_trace_passes(self, factory):
        """validate=False skips in-run checks; the post-hoc check still holds."""
        protocol = factory()
        trace = simulate(protocol, 24, validate=False)
        report = check(trace, protocol)
        assert report.ok, report.violations
        assert report.num_transmissions == len(trace.transmissions)

    def test_unvalidated_cheater_is_caught(self):
        from repro.core.protocol import StreamingProtocol

        class Cheater(StreamingProtocol):
            node_ids = (1, 2)
            source_ids = frozenset({0})

            def transmissions(self, slot, view):
                # Node 1 forwards a packet the same slot it receives it.
                return [
                    Transmission(slot=slot, sender=0, receiver=1, packet=slot),
                    Transmission(slot=slot, sender=1, receiver=2, packet=slot),
                ]

        trace = simulate(Cheater(), 3, validate=False)
        report = check(trace)
        assert not report.ok
        assert set(report.counts) == {"causality"}
        assert report.violations[0].node == 1

    def test_send_capacity_violation_detected(self):
        protocol = MultiTreeProtocol(15, 3)
        trace = simulate(protocol, protocol.slots_for_packets(6))
        # Check with the wrong capacity model: the capacity-3 source trips it.
        report = check(trace)
        assert not report.ok
        assert set(report.counts) == {"send-capacity"}
        assert {v.node for v in report.violations} == {0}

    def test_violation_cap(self):
        protocol = MultiTreeProtocol(30, 3)
        trace = simulate(protocol, protocol.slots_for_packets(9))
        report = check(trace, max_per_rule=5)
        assert len(report.violations) == 5
        assert report.counts["send-capacity"] > 5

    def test_tampered_arrival_is_caught(self):
        protocol = MultiTreeProtocol(15, 3)
        trace = simulate(protocol, protocol.slots_for_packets(9))
        assert check(trace, protocol).ok
        trace.nodes[5].arrivals[0] += 1
        report = check(trace, protocol)
        assert set(report.counts) == {"arrivals"}
        (violation,) = report.violations
        assert (violation.node, violation.packet) == (5, 0)


class TestTreeViz:
    def test_render_tree_levels(self):
        forest = MultiTreeForest.construct(15, 3)
        out = render_tree(forest.trees[0], is_dummy=forest.is_dummy)
        lines = out.splitlines()
        assert lines[1].strip() == "S"
        assert lines[2].split() == ["1", "2", "3"]
        assert lines[3].split() == [str(i) for i in range(4, 13)]

    def test_dummies_bracketed(self):
        forest = MultiTreeForest.construct(13, 3)
        out = render_tree(forest.trees[0], is_dummy=forest.is_dummy)
        assert "[14]" in out and "[15]" in out

    def test_render_forest_static_and_dynamic(self):
        static = MultiTreeForest.construct(9, 3)
        dynamic = DynamicForest(9, 3)
        assert render_forest(static).count("T_") == 3
        assert render_forest(dynamic, max_trees=2).count("T_") == 2

    def test_render_supertree(self):
        out = render_supertree(build_supertree(9, 3))
        assert out.splitlines()[0] == "S (source)"
        assert out.count("+-") == 9
        assert "  +- S_4" in out or "    +- S_4" in out

    def test_render_supertree_custom_names(self):
        out = render_supertree(build_supertree(2, 3), names=["NYC", "LA"])
        assert "NYC" in out and "LA" in out
