"""Public API integrity: every exported name resolves, errors form a proper
hierarchy, and protocol defaults match the paper's model."""

from __future__ import annotations

import importlib

import pytest

import repro
from repro.core import errors
from repro.core.protocol import StreamingProtocol

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.trees",
    "repro.hypercube",
    "repro.cluster",
    "repro.baselines",
    "repro.graphs",
    "repro.theory",
    "repro.repair",
    "repro.obs",
    "repro.exec",
    "repro.check",
    "repro.abr",
    "repro.control",
    "repro.experiments",
    "repro.workloads",
    "repro.reporting",
]


class TestExports:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_sorted_unique(self, module_name):
        module = importlib.import_module(module_name)
        names = list(module.__all__)
        assert len(names) == len(set(names)), f"duplicates in {module_name}.__all__"

    def test_version(self):
        assert repro.__version__ == "17.1.0"

    def test_star_import_is_clean(self):
        namespace: dict = {}
        exec("from repro import *", namespace)  # noqa: S102 - deliberate
        assert "MultiTreeProtocol" in namespace
        assert "ExperimentSpec" in namespace
        assert "run" in namespace
        assert "replay_batch" in namespace


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_constraint_violations_carry_context(self):
        err = errors.SendCapacityViolation("boom", slot=4, node=7)
        assert err.slot == 4
        assert err.node == 7
        assert isinstance(err, errors.ConstraintViolation)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.ScheduleError("x")


class TestProtocolDefaults:
    def test_paper_model_defaults(self):
        class Minimal(StreamingProtocol):
            node_ids = (1,)
            source_ids = frozenset({0})

            def transmissions(self, slot, view):
                return []

        protocol = Minimal()
        assert protocol.send_capacity(1) == 1  # ordinary receiver
        assert protocol.recv_capacity(1) == 1
        assert protocol.packet_available_slot(99) == 0  # pre-recorded
        assert protocol.describe() == "Minimal"


class TestProtocolReusability:
    """Every protocol must be simulatable repeatedly (reset lifecycle)."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: __import__("repro.trees", fromlist=["MultiTreeProtocol"]).MultiTreeProtocol(9, 3),
            lambda: __import__("repro.hypercube", fromlist=["HypercubeCascadeProtocol"]).HypercubeCascadeProtocol(10),
            lambda: __import__("repro.hypercube", fromlist=["GroupedHypercubeProtocol"]).GroupedHypercubeProtocol(10, 2),
            lambda: __import__("repro.baselines", fromlist=["ChainProtocol"]).ChainProtocol(6),
            lambda: __import__("repro.baselines", fromlist=["RandomGossipProtocol"]).RandomGossipProtocol(8, 3, seed=4),
            lambda: __import__("repro.trees", fromlist=["ChurningMultiTreeProtocol"]).ChurningMultiTreeProtocol(9, 3, []),
        ],
        ids=["multi-tree", "cascade", "grouped", "chain", "gossip", "churning"],
    )
    def test_two_runs_identical(self, factory):
        from repro.core import simulate

        protocol = factory()
        first = simulate(protocol, 12, strict_duplicates=False)
        second = simulate(protocol, 12, strict_duplicates=False)
        for node in protocol.node_ids:
            assert dict(first.arrivals(node)) == dict(second.arrivals(node))
