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
from check_oracle import reference_report
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.baselines import ChainProtocol, SingleTreeProtocol
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
from repro.exec.compiler import CompiledSchedule, build_protocol
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


def shift_arrival(txs, delta, **want):
    """Move the matching transmission's arrival slot by ``delta``."""
    tx = find_tx(txs, **want)
    txs.remove(tx)
    txs.append(tx[:4] + (tx[4] + delta,))


def keyed(schedule, txs):
    """``rebuild`` under ``schedule``'s key, so the theorem bounds apply."""
    bare = rebuild(schedule, txs)
    return CompiledSchedule(
        key=schedule.key, num_slots=bare.num_slots, node_ids=bare.node_ids,
        source_ids=bare.source_ids, starts=bare.starts, senders=bare.senders,
        receivers=bare.receivers, packets=bare.packets, arrivals=bare.arrivals,
        latencies=bare.latencies, trees=bare.trees,
    )


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
            "multi-tree", 15, 3, num_packets=8, cache=ScheduleCache()
        )
        assert report.ok, report.summary()

    def test_smoke_grid_small_is_clean(self):
        reports = smoke_grid(
            nodes=(7, 15),
            degrees=(2, 3),
            num_packets=8,
            cache=ScheduleCache(),
        )
        assert reports and all(r.ok for r in reports), [
            r.summary() for r in reports if not r.ok
        ]
        # hypercube/chain are degree-insensitive: one report per population,
        # keyed (and described) at the compiler's pinned d=1.
        descriptions = [r.description for r in reports]
        assert len(descriptions) == len(set(descriptions))
        assert {d for d in descriptions if d.startswith(("hypercube ", "chain "))} == {
            f"{scheme} N={n} d=1" for scheme in ("hypercube", "chain") for n in (7, 15)
        }
        assert len(reports) == 3 * 2 * 2 + 2 * 2


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

    def test_negative_packet_is_reported_not_raised(self, chain):
        # The tail's packet-3 delivery carries packet -1 instead: the tail's
        # measured trace has P entries but is not the prefix 0..P-1.
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        tx = find_tx(txs, receiver=N, packet=3)
        txs.remove(tx)
        txs.append(tx[:3] + (-1, tx[4]))
        report = recheck(protocol, schedule, txs)
        assert report.counts == {"well-formed": 1, "causality": 1, "coverage": 1}
        assert report.violations[0].detail == "negative packet id -1"

    def test_unknown_negative_sender_is_reported_not_raised(self):
        # SingleTreeProtocol.send_capacity(-1) raises; the checker asks the
        # protocol only about its own ids and holds any other to capacity 1.
        protocol = SingleTreeProtocol(15, 3)
        schedule = compile_protocol(protocol, protocol.slots_for_packets(P))
        txs = flat_transmissions(schedule)
        assert txs[6][1] == 1
        txs[6] = (txs[6][0], -1, *txs[6][2:])
        report = check_schedule(
            rebuild(schedule, txs), protocol=protocol, num_packets=P
        )
        assert report.counts == {"well-formed": 1, "causality": 1}
        assert report.violations[0].detail == "sender -1 is not a known node"

    def test_late_arrival_is_playability(self, chain):
        # Stretch the tail's packet-1 delivery to land at slot 9, in place
        # of packet 4's (outside the prefix, dropped): the earliest
        # hiccup-free start becomes 9, so packet 3 plays at slot 12 of an
        # 11-slot horizon.
        protocol, schedule = chain
        txs = flat_transmissions(schedule)
        txs.remove(find_tx(txs, receiver=N, packet=4))
        shift_arrival(txs, 3, receiver=N, packet=1)
        report = recheck(protocol, schedule, txs)
        assert report.counts == {"playability": 1}
        (violation,) = report.violations
        assert violation.node == N
        assert "start delay 9" in violation.detail

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


class TestTheoremBounds:
    """Planted faults for the two theorem-bound rules (keyed schedules)."""

    def test_late_first_packet_is_delay_bound(self):
        # Multi-tree N=15 d=3: leaf 13 gets packet 0 at slot 6.  Stretch
        # that delivery to slot 10, in place of packet 7's (outside the
        # prefix; node 13 forwards nothing): start 11 > h*d = 9.
        schedule = compile_schedule(
            "multi-tree", 15, 3, num_packets=P, cache=ScheduleCache()
        )
        txs = flat_transmissions(schedule)
        txs.remove(find_tx(txs, receiver=13, packet=7))
        shift_arrival(txs, 4, receiver=13, packet=0)
        report = check_schedule(keyed(schedule, txs), num_packets=P)
        assert report.counts == {"delay-bound": 1}
        (violation,) = report.violations
        assert violation.node == 13
        assert violation.detail == (
            "earliest hiccup-free start 11 exceeds the scheme bound 9"
        )

    def test_early_packet_is_buffer_bound(self):
        # Hypercube N=15: node 5 holds packets 0 and 2 at slot 4 and plays
        # from slot 5.  Deliver packet 1 at slot 3 instead of 5 and node 5
        # holds three packets at slot 4, against the 2-packet bound (the
        # arrival now precedes its sending slot, which well-formed reports).
        schedule = compile_schedule(
            "hypercube", 15, num_packets=P, cache=ScheduleCache()
        )
        txs = flat_transmissions(schedule)
        shift_arrival(txs, -2, receiver=5, packet=1)
        report = check_schedule(keyed(schedule, txs), num_packets=P)
        assert report.counts == {"well-formed": 1, "buffer-bound": 1}
        assert report.violations[1] == Violation(
            "buffer-bound", None, 5, None,
            "peak buffer 3 packets exceeds the scheme bound 2",
        )


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
        cache = ScheduleCache()
        with pytest.raises(ScheduleError, match="static verification"):
            compile_schedule("chain", 4, num_packets=3, cache=cache, verify=True)
        assert len(cache) == 0  # the bad artifact never entered the cache

    def test_verify_on_miss_accepts_good_compiles(self):
        cache = ScheduleCache()
        schedule = compile_schedule(
            "chain", 5, num_packets=4, cache=cache, verify=True
        )
        assert schedule.num_slots == ChainProtocol(5).slots_for_packets(4)

    def _planted_chain(self):
        """A chain N=5 P=4 schedule, and a copy under the same key in which
        relay 1 -> 2 forwards packet 2 where it should forward packet 1."""
        good = compile_schedule("chain", 5, num_packets=4, cache=ScheduleCache())
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

    @pytest.mark.parametrize("layer", ["memory"])
    def test_verify_certifies_cache_hits(self, layer):
        good, bad = self._planted_chain()
        cache = ScheduleCache()
        cache.put(bad.key, bad)
        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(ScheduleError, match="static verification"):
            compile_schedule("chain", 5, num_packets=4, cache=cache, verify=True)
        assert registry.counter("schedule_cache.hit", layer=layer).value == 1
        assert cache.get(bad.key) is None  # the failing hit was dropped
        provenance: dict = {}
        fresh = compile_schedule(
            "chain", 5, num_packets=4, cache=cache, verify=True, provenance=provenance
        )
        assert provenance["cache"] == "miss"
        assert fresh == good

    def test_verify_certifies_an_unverified_compile(self):
        cache = ScheduleCache()
        first = compile_schedule("chain", 5, num_packets=4, cache=cache)
        provenance: dict = {}
        again = compile_schedule(
            "chain", 5, num_packets=4, cache=cache, verify=True, provenance=provenance
        )
        assert again is first
        assert provenance["cache"] == "memory"

    def test_derived_num_packets_matches_request(self):
        # check_config compiles via num_packets and checks the same prefix.
        report = check_config("chain", 5, num_packets=7, cache=ScheduleCache())
        assert report.num_packets == 7
        assert report.ok


# ------------------------------------------------------- oracle differential
#: ``(scheme, N, d, build options)`` of the corruption targets.
_ORACLE_CONFIGS = (
    ("chain", 6, 1, {}),
    ("multi-tree", 13, 2, {}),
    ("multi-tree", 15, 3, {}),
    ("multi-tree", 31, 2, {}),
    ("multi-tree", 15, 3, {"mode": "live_prebuffered"}),
    ("multi-tree", 13, 2, {"latency": 2}),
    ("hypercube", 15, 1, {}),
    ("grouped-hypercube", 20, 3, {}),
    ("single-tree", 15, 3, {}),
)
_ORACLE_TARGETS: dict[int, tuple] = {}


def _oracle_target(index):
    """The ``(protocol, schedule, flat rows)`` of one config, compiled once."""
    if index not in _ORACLE_TARGETS:
        scheme, n, d, options = _ORACLE_CONFIGS[index]
        schedule = compile_schedule(
            scheme, n, d, num_packets=P, cache=ScheduleCache(), **options
        )
        _ORACLE_TARGETS[index] = (
            build_protocol(scheme, n, d, **options), schedule,
            flat_transmissions(schedule),
        )
    return _ORACLE_TARGETS[index]


@st.composite
def _corruptions(draw):
    """A config, 0-4 edits of its flat transmissions, a prefix and a cap."""
    index = draw(st.integers(0, len(_ORACLE_CONFIGS) - 1))
    protocol, schedule, rows = _oracle_target(index)
    txs = list(rows)
    nodes = list(schedule.node_ids)
    source = schedule.source_ids[0]
    for _ in range(draw(st.integers(0, 4))):
        if not txs:
            break
        i = draw(st.integers(0, len(txs) - 1))
        slot, sender, receiver, packet, arrival = txs[i]
        edit = draw(st.sampled_from(
            ("drop", "sender", "receiver", "packet", "arrival", "duplicate")
        ))
        if edit == "drop":
            del txs[i]
        elif edit == "sender":
            sender = draw(st.sampled_from((*nodes, source, 999, -1)))
        elif edit == "receiver":
            receiver = draw(st.sampled_from((*nodes, source, 999)))
        elif edit == "packet":
            packet = draw(st.sampled_from((packet + 1, packet - 1, -1, 0, P + 3)))
        elif edit == "arrival":
            arrival += draw(st.sampled_from((-2, -1, 1, 2, 50)))
        else:
            txs.insert(i, txs[i])
        if edit in ("sender", "receiver", "packet", "arrival"):
            txs[i] = (slot, sender, receiver, packet, arrival)
    num_packets = draw(st.sampled_from((P - 1, P, P + 2, 0)))
    max_per_rule = draw(st.sampled_from((1, 3, 25)))
    return protocol, keyed(schedule, txs), num_packets, max_per_rule


class TestColumnFactsEqualTheDictOracle:
    """The columnar checker's report equals the dict-table checker kept in
    ``tests/check_oracle.py`` on random corruptions, wherever that one
    returns; where it raises, the columnar checker still reports."""

    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_corruptions())
    def test_equal_to_reference(self, corruption):
        protocol, schedule, num_packets, max_per_rule = corruption
        report = check_schedule(
            schedule, protocol=protocol, num_packets=num_packets,
            max_per_rule=max_per_rule,
        )
        for rule in report.counts:
            event(f"fires: {rule}")
        try:
            expected = reference_report(
                schedule, protocol, num_packets,
                description=report.description, max_per_rule=max_per_rule,
            )
        except ValueError:
            event("oracle raised")
            return
        assert report == expected
        assert {
            type(value)
            for violation in report.violations
            for value in (violation.slot, violation.node, violation.packet)
        } <= {int, type(None)}
