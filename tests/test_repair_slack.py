"""Tests for slack provisioning (repro.repair.slack)."""

from __future__ import annotations

import pytest

from repro.core.engine import simulate
from repro.core.errors import ReproError
from repro.repair.slack import CAPACITY, THIN, SlackPolicy, SlackProvisioner
from repro.trees.live import ChurningMultiTreeProtocol


class TestSlackPolicy:
    def test_defaults(self):
        policy = SlackPolicy()
        assert policy.mode == THIN
        assert policy.period == 20  # round(1/0.05)

    def test_thin_epsilon_bounds(self):
        with pytest.raises(ReproError):
            SlackPolicy(epsilon=0.0)
        with pytest.raises(ReproError):
            SlackPolicy(epsilon=0.6)
        assert SlackPolicy(epsilon=0.5).period == 2

    def test_capacity_extra_bounds(self):
        with pytest.raises(ReproError):
            SlackPolicy(mode=CAPACITY, extra=0)
        assert SlackPolicy(mode=CAPACITY, extra=2).extra == 2

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, float("nan")])
    def test_capacity_epsilon_sizes_the_margin_so_must_be_positive(self, epsilon):
        # The trailing margin is four periods of round(1/epsilon) slots.
        with pytest.raises(ReproError, match="epsilon"):
            SlackPolicy(mode=CAPACITY, epsilon=epsilon)
        assert SlackPolicy(mode=CAPACITY, epsilon=0.9).period == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            SlackPolicy(mode="magic")


class TestThinClock:
    def test_clock_is_a_bijection_onto_data_slots(self):
        protocol = SlackProvisioner(
            ChurningMultiTreeProtocol(7, 3, []), SlackPolicy(epsilon=0.1)
        )
        outer_of = [protocol.outer_slot(j) for j in range(100)]
        # Strictly increasing, never lands on a repair slot, and inverts.
        assert all(b > a for a, b in zip(outer_of, outer_of[1:], strict=False))
        for j, t in enumerate(outer_of):
            assert not protocol.is_repair_slot(t)
            assert protocol.inner_slot(t) == j

    def test_every_period_th_slot_is_repair(self):
        protocol = SlackProvisioner(
            ChurningMultiTreeProtocol(7, 3, []), SlackPolicy(epsilon=0.25)
        )
        k = protocol.period
        repair_slots = [t for t in range(40) if protocol.is_repair_slot(t)]
        assert repair_slots == [t for t in range(40) if (t + 1) % k == 0]
        assert len(repair_slots) == 40 // k

    def test_repair_slots_emit_no_data(self):
        inner = ChurningMultiTreeProtocol(7, 3, [])
        protocol = SlackProvisioner(inner, SlackPolicy(epsilon=0.2))
        trace = simulate(protocol, 40)
        for tx in trace.transmissions:
            assert not protocol.is_repair_slot(tx.slot)

    def test_transmissions_restamped_to_outer_clock(self):
        inner = ChurningMultiTreeProtocol(7, 3, [])
        protocol = SlackProvisioner(inner, SlackPolicy(epsilon=0.2))
        trace = simulate(protocol, 40)
        assert trace.transmissions  # non-trivial run
        slots = {tx.slot for tx in trace.transmissions}
        assert all(protocol.inner_slot(t) >= 0 for t in slots)

    def test_provisioned_arrivals_are_outer_mapped(self):
        inner = ChurningMultiTreeProtocol(7, 3, [])
        clean = simulate(inner, 60)
        inner.reset()
        protocol = SlackProvisioner(inner, SlackPolicy(epsilon=0.1))
        dilated = simulate(protocol, protocol.outer_slot(60) + 1)
        for node in inner.node_ids:
            base = clean.arrivals(node)
            mapped = dilated.arrivals(node)
            for packet, slot in base.items():
                assert mapped[packet] == protocol.outer_slot(slot)

    def test_packet_available_slot_outer_mapped(self):
        inner = ChurningMultiTreeProtocol(7, 3, [])
        protocol = SlackProvisioner(inner, SlackPolicy(epsilon=0.25))
        for packet in range(10):
            assert protocol.packet_available_slot(packet) == protocol.outer_slot(
                inner.packet_available_slot(packet)
            )

    def test_slots_for_packets_covers_dilation_plus_margin(self):
        inner = ChurningMultiTreeProtocol(7, 3, [])
        protocol = SlackProvisioner(inner, SlackPolicy(epsilon=0.1))
        n = protocol.slots_for_packets(12)
        assert n >= protocol.outer_slot(inner.slots_for_packets(12))


class TestCapacityMode:
    def test_identity_clock(self):
        protocol = SlackProvisioner(
            ChurningMultiTreeProtocol(7, 3, []), SlackPolicy(mode=CAPACITY, extra=1)
        )
        assert protocol.inner_slot(13) == 13
        assert protocol.outer_slot(13) == 13
        assert not protocol.is_repair_slot(19)

    def test_receivers_get_extra_capacity_source_unchanged(self):
        inner = ChurningMultiTreeProtocol(7, 3, [])
        protocol = SlackProvisioner(inner, SlackPolicy(mode=CAPACITY, extra=2))
        node = next(iter(protocol.node_ids))
        assert protocol.recv_capacity(node) == inner.recv_capacity(node) + 2
        assert protocol.send_capacity(node) == inner.send_capacity(node) + 2
        source = next(iter(protocol.source_ids))
        assert protocol.send_capacity(source) == inner.send_capacity(source)

    def test_schedule_unchanged(self):
        inner = ChurningMultiTreeProtocol(7, 3, [])
        clean = simulate(inner, 40)
        inner.reset()
        provisioned = simulate(
            SlackProvisioner(inner, SlackPolicy(mode=CAPACITY, extra=1)), 40
        )
        for node in inner.node_ids:
            assert provisioned.arrivals(node) == clean.arrivals(node)
