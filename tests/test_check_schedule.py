"""Adversarial tests for the schedule model checker (repro.check).

Strategy: compile a real schedule, then corrupt it *surgically* — one
semantic defect per fixture — and assert the checker reports exactly the
violation class that defect belongs to, and nothing else.  The chain
baseline is the corruption target of choice: its timetable is simple enough
to reason about exactly (node ``i`` receives packet ``p`` at slot
``p + i - 1`` and forwards it one slot later).
"""

from array import array

import numpy as np
import pytest

from repro.baselines import ChainProtocol
from repro.check import (
    RULES,
    CheckReport,
    Violation,
    check_config,
    check_schedule,
    smoke_grid,
)
from repro.core.errors import ReproError, ScheduleError
from repro.exec import ScheduleCache, compile_protocol, compile_schedule
from repro.exec.compiler import CompiledSchedule
from repro.obs import MetricsRegistry, use_registry

N = 6  # chain length for the corruption fixtures
P = 4  # measured packet prefix


# --------------------------------------------------------------------- helpers
def flat_transmissions(schedule):
    """``[(slot, sender, receiver, packet, arrival), ...]`` in flat order."""
    out = []
    for slot in range(schedule.num_slots):
        for i in range(schedule.starts[slot], schedule.starts[slot + 1]):
            out.append(
                (
                    slot,
                    schedule.senders[i],
                    schedule.receivers[i],
                    schedule.packets[i],
                    schedule.arrivals[i],
                )
            )
    return out


def rebuild(schedule, txs):
    """A keyless CompiledSchedule carrying exactly ``txs`` (latency 1)."""
    num_slots = schedule.num_slots
    starts = array("i", [0])
    senders = array("i")
    receivers = array("i")
    packets = array("i")
    arrivals = array("i")
    latencies = array("i")
    trees = array("i")
    ordered = sorted(txs, key=lambda t: t[0])
    index = 0
    for slot in range(num_slots):
        while index < len(ordered) and ordered[index][0] == slot:
            _, sender, receiver, packet, arrival = ordered[index]
            senders.append(sender)
            receivers.append(receiver)
            packets.append(packet)
            arrivals.append(arrival)
            latencies.append(1)
            trees.append(-1)
            index += 1
        starts.append(len(senders))
    if index != len(ordered):
        raise AssertionError("corrupted transmission outside the horizon")
    return CompiledSchedule(
        key=None,
        num_slots=num_slots,
        node_ids=schedule.node_ids,
        source_ids=schedule.source_ids,
        starts=starts,
        senders=senders,
        receivers=receivers,
        packets=packets,
        arrivals=arrivals,
        latencies=latencies,
        trees=trees,
    )


def find_tx(txs, **want):
    """The unique transmission matching the given field values."""
    fields = ("slot", "sender", "receiver", "packet", "arrival")
    matches = [
        tx
        for tx in txs
        if all(tx[fields.index(k)] == v for k, v in want.items())
    ]
    assert len(matches) == 1, (want, matches)
    return matches[0]


@pytest.fixture(scope="module")
def chain():
    protocol = ChainProtocol(N)
    schedule = compile_protocol(protocol, protocol.slots_for_packets(P))
    return protocol, schedule


def recheck(protocol, schedule, txs):
    return check_schedule(rebuild(schedule, txs), protocol=protocol, num_packets=P)


# ---------------------------------------------------------------- clean passes
class TestCleanSchedules:
    def test_chain_is_certified(self, chain):
        protocol, schedule = chain
        report = check_schedule(schedule, protocol=protocol, num_packets=P)
        assert report.ok
        assert report.counts == {}
        assert report.violations == ()
        assert "OK" in report.summary()

    def test_check_config_multi_tree(self):
        report = check_config(
            "multi-tree", 15, 3, num_packets=8, cache=ScheduleCache(disk=False)
        )
        assert report.ok, report.summary()

    def test_smoke_grid_small_is_clean(self):
        reports = smoke_grid(
            nodes=(7, 15),
            degrees=(2, 3),
            num_packets=8,
            cache=ScheduleCache(disk=False),
        )
        assert reports and all(r.ok for r in reports), [
            r.summary() for r in reports if not r.ok
        ]
        # hypercube/chain are degree-insensitive: one report per population.
        descriptions = [r.description for r in reports]
        assert len(descriptions) == len(set(descriptions))


# ------------------------------------------------------- corruption fixtures
class TestCorruptions:
    """Each corruption must trigger exactly its own violation class."""

    def test_dropped_transmission_is_coverage(self, chain):
        # Drop the delivery of packet 2 to the chain tail (node N).  The tail
        # forwards nothing, so the only consequence is the coverage gap.
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        txs.remove(find_tx(txs, receiver=N, packet=2))
        report = recheck(protocol, schedule, txs)
        assert set(report.counts) == {"coverage"}
        (violation,) = report.violations
        assert violation.node == N
        assert violation.packet == 2

    def test_duplicate_receive_is_duplicate_delivery(self, chain):
        # Rewrite the tail's packet-5 delivery to re-deliver packet 2 (already
        # held): one wasted receive slot, every other invariant untouched
        # (packet 5 is outside the measured prefix P=4).
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        slot, sender, receiver, _, arrival = find_tx(txs, receiver=N, packet=5)
        txs.remove((slot, sender, receiver, 5, arrival))
        txs.append((slot, sender, receiver, 2, arrival))
        report = recheck(protocol, schedule, txs)
        assert set(report.counts) == {"duplicate-delivery"}
        (violation,) = report.violations
        assert (violation.node, violation.packet) == (N, 2)

    def test_source_overflow_is_send_capacity(self, chain):
        # Reassign a mid-chain forward to the source: the source now emits two
        # packets in one slot against its capacity of 1 (Section 2's model).
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        slot, _, receiver, packet, arrival = find_tx(
            txs, sender=N - 1, receiver=N, packet=3
        )
        txs.remove((slot, N - 1, receiver, packet, arrival))
        txs.append((slot, 0, receiver, packet, arrival))
        report = recheck(protocol, schedule, txs)
        assert set(report.counts) == {"send-capacity"}
        (violation,) = report.violations
        assert violation.node == 0
        assert violation.slot == slot

    def test_relay_overflow_is_send_capacity(self, chain):
        # Same defect on a relay: node 1 (capacity 1) absorbs node 3's forward
        # of a packet node 1 has long held, so only send-capacity can fire.
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        slot, _, receiver, packet, arrival = find_tx(txs, sender=3, packet=3)
        txs.remove((slot, 3, receiver, packet, arrival))
        txs.append((slot, 1, receiver, packet, arrival))
        report = recheck(protocol, schedule, txs)
        assert set(report.counts) == {"send-capacity"}
        (violation,) = report.violations
        assert violation.node == 1

    def test_send_before_hold_is_causality(self, chain):
        # Reassign the tail's packet-3 delivery to be sent by the tail itself:
        # the tail only *receives* packet 3 at that very slot, so it forwards
        # a packet it does not yet hold.
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        slot, _, receiver, packet, arrival = find_tx(txs, receiver=N, packet=3)
        txs.remove((slot, N - 1, receiver, packet, arrival))
        txs.append((slot, N, receiver, packet, arrival))
        report = recheck(protocol, schedule, txs)
        assert set(report.counts) == {"causality"}
        (violation,) = report.violations
        assert (violation.node, violation.packet) == (N, 3)

    def test_colliding_arrivals_are_recv_capacity(self, chain):
        # Stretch the latency of the tail's packet-0 delivery (same sender and
        # sending slot, arrival one slot later): it now lands in the same slot
        # as packet 1 — two receives against capacity 1, nothing else moves.
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        slot, sender, receiver, packet, arrival = find_tx(txs, receiver=N, packet=0)
        txs.remove((slot, sender, receiver, packet, arrival))
        txs.append((slot, sender, receiver, 0, arrival + 1))
        report = recheck(protocol, schedule, txs)
        assert set(report.counts) == {"recv-capacity"}
        (violation,) = report.violations
        assert violation.node == N
        assert violation.slot == arrival + 1

    def test_unknown_node_is_well_formed(self, chain):
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        slot, sender, receiver, packet, arrival = find_tx(txs, receiver=N, packet=5)
        txs.remove((slot, sender, receiver, packet, arrival))
        txs.append((slot, sender, N + 99, packet, arrival))
        report = recheck(protocol, schedule, txs)
        assert "well-formed" in report.counts

    def test_truncation_keeps_exact_counts(self, chain):
        # Drop every delivery to the tail: one coverage violation per missing
        # prefix packet; max_per_rule truncates kept records, not totals.
        protocol, schedule = chain
        txs = [tx for tx in flat_transmissions(schedule) if tx[2] != N]
        report = check_schedule(
            rebuild(schedule, txs), protocol=protocol, num_packets=P, max_per_rule=1
        )
        assert report.counts["coverage"] == 1  # one finding per node, node N only
        kept = [v for v in report.violations if v.rule == "coverage"]
        assert len(kept) == 1


# ----------------------------------------------------------------- API details
class TestReportAndWiring:
    def test_violation_rules_are_catalogued(self, chain):
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        txs.remove(find_tx(txs, receiver=N, packet=2))
        report = recheck(protocol, schedule, txs)
        for violation in report.violations:
            assert violation.rule in RULES
            assert str(violation)
            assert violation.to_dict()["rule"] == violation.rule

    def test_report_to_dict_roundtrips(self, chain):
        protocol, schedule = chain
        report = check_schedule(schedule, protocol=protocol, num_packets=P)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["num_packets"] == P
        assert payload["violations"] == []

    def test_keyless_schedule_requires_protocol(self, chain):
        _, schedule = chain
        with pytest.raises(ReproError):
            check_schedule(rebuild(schedule, flat_transmissions(schedule)))

    def test_violations_counter_lands_on_registry(self, chain):
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        txs.remove(find_tx(txs, receiver=N, packet=2))
        registry = MetricsRegistry()
        with use_registry(registry):
            recheck(protocol, schedule, txs)
        snapshot = registry.snapshot()
        counters = [
            row for row in snapshot["counters"] if row["name"] == "check.violations"
        ]
        assert counters == [
            {"name": "check.violations", "labels": {"rule": "coverage"}, "value": 1}
        ]

    def test_verify_on_miss_rejects_bad_compiles(self, monkeypatch):
        # A protocol whose relay double-sends violates send-capacity; with
        # verify=True the fresh compile must be rejected *before* caching.
        # compile_schedule lowers the closed-form timetable, so the fault is
        # planted there: every row sent by node 1 appears twice.
        class DoubleSendChain(ChainProtocol):
            def timetable(self, num_slots):
                columns = super().timetable(num_slots)
                relay = np.flatnonzero(columns[1] == 1)
                rows = np.sort(np.concatenate((np.arange(len(columns[0])), relay)))
                return tuple(column[rows] for column in columns)

        import repro.exec.compiler as compiler_module

        monkeypatch.setattr(
            compiler_module, "build_protocol", lambda *a, **k: DoubleSendChain(4)
        )
        cache = ScheduleCache(disk=False)
        with pytest.raises(ScheduleError, match="static verification"):
            compile_schedule("chain", 4, num_packets=3, cache=cache, verify=True)
        assert len(cache) == 0  # the bad artifact never entered the cache

    def test_verify_on_miss_accepts_good_compiles(self):
        cache = ScheduleCache(disk=False)
        schedule = compile_schedule(
            "chain", 5, num_packets=4, cache=cache, verify=True
        )
        assert schedule.num_slots == ChainProtocol(5).slots_for_packets(4)

    def _planted_chain(self):
        """A chain N=5 P=4 schedule, and a copy under the same key in which
        relay 1 -> 2 forwards packet 2 where it should forward packet 1."""
        good = compile_schedule("chain", 5, num_packets=4, cache=ScheduleCache(disk=False))
        packets = array("i", good.packets)
        assert (good.senders[4], good.receivers[4], packets[4]) == (1, 2, 1)
        packets[4] += 1
        bad = CompiledSchedule(
            key=good.key, num_slots=good.num_slots, node_ids=good.node_ids,
            source_ids=good.source_ids, starts=good.starts, senders=good.senders,
            receivers=good.receivers, packets=packets, arrivals=good.arrivals,
            latencies=good.latencies, trees=good.trees,
        )
        assert check_schedule(bad).counts == {
            "causality": 2, "duplicate-delivery": 1, "coverage": 1,
        }
        return good, bad

    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
    def test_verify_certifies_cache_hits(self, tmp_path, disk):
        good, bad = self._planted_chain()
        cache = ScheduleCache(disk_dir=tmp_path) if disk else ScheduleCache(disk=False)
        cache.put(bad.key, bad)
        if disk:
            cache.clear()  # the plant is served from the disk layer
        with pytest.raises(ScheduleError, match="static verification"):
            compile_schedule("chain", 5, num_packets=4, cache=cache, verify=True)
        assert cache.get(bad.key) is None  # the failing hit was dropped
        assert not list(tmp_path.glob("*.pkl"))
        provenance: dict = {}
        fresh = compile_schedule(
            "chain", 5, num_packets=4, cache=cache, verify=True, provenance=provenance
        )
        assert provenance["cache"] == "miss"
        assert fresh == good

    def test_verify_certifies_an_unverified_compile(self):
        cache = ScheduleCache(disk=False)
        first = compile_schedule("chain", 5, num_packets=4, cache=cache)
        provenance: dict = {}
        again = compile_schedule(
            "chain", 5, num_packets=4, cache=cache, verify=True, provenance=provenance
        )
        assert again is first
        assert provenance["cache"] == "memory"

    def test_derived_num_packets_matches_request(self):
        # check_config compiles via num_packets and checks the same prefix.
        report = check_config("chain", 5, num_packets=7, cache=ScheduleCache(disk=False))
        assert report.num_packets == 7
        assert report.ok
