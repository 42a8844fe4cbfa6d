"""Compiled schedules replay identically to object-based scheduling."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.engine import SimConfig, simulate
from repro.core.errors import ReproError
from repro.exec.cache import ScheduleCache, ScheduleKey
from repro.exec.compiler import (
    COMPILABLE_SCHEMES,
    build_protocol,
    compile_protocol,
    compile_schedule,
    schedule_key,
)
from repro.exec.replay import replay_arrivals

CONFIGS = [
    ("multi-tree", 7, 2),
    ("multi-tree", 15, 3),
    ("multi-tree", 31, 2),
    ("hypercube", 7, 2),
    ("hypercube", 15, 3),
    ("hypercube", 31, 2),
]


def _horizon(scheme, n, d, packets=12):
    return build_protocol(scheme, n, d).slots_for_packets(packets)


class TestCompileEquivalence:
    @pytest.mark.parametrize("scheme,n,d", CONFIGS)
    def test_slot_for_slot_identical_to_object_path(self, scheme, n, d):
        num_slots = _horizon(scheme, n, d)
        reference = simulate(build_protocol(scheme, n, d), num_slots)
        compiled = compile_protocol(build_protocol(scheme, n, d), num_slots)
        by_slot: dict[int, list] = {s: [] for s in range(num_slots)}
        for tx in reference.transmissions:
            by_slot[tx.slot].append((tx.sender, tx.receiver, tx.packet))
        for slot in range(num_slots):
            batch = [(tx.sender, tx.receiver, tx.packet) for tx in compiled.batch(slot)]
            assert batch == by_slot[slot], f"slot {slot} differs"

    @pytest.mark.parametrize("scheme,n,d", CONFIGS)
    def test_engine_fast_path_matches_object_path(self, scheme, n, d):
        num_slots = _horizon(scheme, n, d)
        reference = simulate(build_protocol(scheme, n, d), num_slots)
        compiled = compile_protocol(build_protocol(scheme, n, d), num_slots)
        replayed = simulate(
            build_protocol(scheme, n, d), num_slots, compiled_schedule=compiled
        )
        assert replayed.all_arrivals() == reference.all_arrivals()
        assert [
            (t.slot, t.sender, t.receiver, t.packet) for t in replayed.transmissions
        ] == [
            (t.slot, t.sender, t.receiver, t.packet) for t in reference.transmissions
        ]

    @pytest.mark.parametrize("scheme,n,d", CONFIGS)
    def test_engine_free_replay_matches_object_path(self, scheme, n, d):
        num_slots = _horizon(scheme, n, d)
        reference = simulate(build_protocol(scheme, n, d), num_slots)
        compiled = compile_protocol(build_protocol(scheme, n, d), num_slots)
        assert replay_arrivals(compiled) == reference.all_arrivals()

    def test_large_population_replay(self):
        # N=1023 d=2: the bench configuration; skip the validator for speed.
        num_slots = _horizon("multi-tree", 1023, 2, packets=4)
        reference = simulate(
            build_protocol("multi-tree", 1023, 2), num_slots,
            validate=False, record_transmissions=False,
        )
        compiled = compile_protocol(build_protocol("multi-tree", 1023, 2), num_slots)
        assert replay_arrivals(compiled) == reference.all_arrivals()

    def test_pickle_roundtrip_preserves_equality(self):
        compiled = compile_schedule(
            "multi-tree", 31, 2, num_packets=8, cache=ScheduleCache()
        )
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone == compiled
        assert replay_arrivals(clone) == replay_arrivals(compiled)


class TestClosedFormLowering:
    """compile_schedule lowers each scheme's closed-form timetable; the
    stepped loop of compile_protocol is the oracle it must equal."""

    @given(
        scheme=st.sampled_from(COMPILABLE_SCHEMES),
        n=st.integers(1, 200),
        d=st.integers(1, 6),
        construction=st.sampled_from(("structured", "greedy")),
        mode=st.sampled_from(("prerecorded", "live_prebuffered")),
        latency=st.integers(1, 3),
        packets=st.integers(0, 6),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_lowering_equals_the_stepped_loop(
        self, scheme, n, d, construction, mode, latency, packets, data
    ):
        config = {"construction": construction, "mode": mode, "latency": latency}
        full = build_protocol(scheme, n, d, **config).slots_for_packets(packets)
        horizon = data.draw(st.integers(0, full), label="horizon")
        provenance: dict = {}
        lowered = compile_schedule(
            scheme, n, d, num_slots=horizon, cache=ScheduleCache(),
            provenance=provenance, **config,
        )
        key = schedule_key(scheme, n, d, num_slots=horizon, **config)
        stepped = compile_protocol(
            build_protocol(scheme, n, d, **config), horizon, key=key
        )
        assert lowered == stepped
        assert provenance["cache_token"] == stepped.key.token()


class TestClosedFormKeys:
    """A key's ``num_packets`` horizon is closed-form arithmetic over each
    scheme's structural size; the built protocol's ``slots_for_packets``
    reads the same size off its built structure."""

    @given(
        scheme=st.sampled_from((*COMPILABLE_SCHEMES, "gossip")),
        n=st.one_of(st.integers(-2, 130), st.sampled_from((255, 500, 1023))),
        d=st.integers(-1, 7),
        construction=st.sampled_from(("structured", "greedy", "spiral")),
        mode=st.sampled_from(("prerecorded", "live_prebuffered", "looped")),
        latency=st.integers(1, 3),
        packets=st.sampled_from((0, 1, 7, 16)),
    )
    @settings(max_examples=400, deadline=None)
    def test_key_horizon_equals_the_built_protocols(
        self, scheme, n, d, construction, mode, latency, packets
    ):
        config = {"construction": construction, "mode": mode, "latency": latency}

        def outcome(call):
            try:
                return call()
            except Exception as exc:  # the two sides must fail alike
                return type(exc), str(exc)

        built = outcome(
            lambda: build_protocol(scheme, n, d, **config).slots_for_packets(packets)
        )
        keyed = outcome(
            lambda: schedule_key(scheme, n, d, num_packets=packets, **config).num_slots
        )
        event("rejected" if isinstance(built, tuple) else "accepted")
        assert keyed == built

    @pytest.mark.parametrize("scheme", COMPILABLE_SCHEMES)
    def test_warm_lookups_build_no_protocol(self, protocol_builds, scheme):
        cache = ScheduleCache()
        first = compile_schedule(scheme, 63, 3, num_packets=8, cache=cache)
        assert protocol_builds == [scheme]  # the miss builds exactly one
        for _ in range(10):
            assert compile_schedule(scheme, 63, 3, num_packets=8, cache=cache) is first
        assert protocol_builds == [scheme]

    @pytest.mark.parametrize("scheme", COMPILABLE_SCHEMES)
    def test_schedule_key_builds_no_protocol(self, protocol_builds, scheme):
        schedule_key(scheme, 1023, 3, num_packets=16)
        schedule_key(scheme, 1023, 3, num_slots=40)
        assert protocol_builds == []


class TestCompileScheduleFrontDoor:
    def test_num_packets_derives_horizon(self):
        protocol = build_protocol("multi-tree", 15, 3)
        compiled = compile_schedule(
            "multi-tree", 15, 3, num_packets=10, cache=ScheduleCache()
        )
        assert compiled.num_slots == protocol.slots_for_packets(10)

    def test_exactly_one_horizon_argument(self):
        with pytest.raises(ReproError):
            compile_schedule("multi-tree", 15, 3, cache=ScheduleCache())
        with pytest.raises(ReproError):
            compile_schedule(
                "multi-tree", 15, 3, num_slots=10, num_packets=10,
                cache=ScheduleCache(),
            )

    @pytest.mark.parametrize(
        "scheme,n,kwargs,named",
        [
            ("multi-tree", 15, {"num_packets": -2}, "num_packets"),
            ("hypercube", 15, {"num_packets": -1}, "num_packets"),
            ("chain", 5, {"num_packets": -3}, "num_packets"),
            ("multi-tree", 15.0, {"num_packets": 4}, "num_nodes"),
            ("multi-tree", 15, {"num_packets": 2.5}, "num_packets"),
            ("multi-tree", 15, {"num_packets": True}, "num_packets"),
            ("multi-tree", 15, {"num_packets": 4, "degree": 3.0}, "degree"),
            ("multi-tree", 15, {"num_slots": 9.0}, "num_slots"),
            ("multi-tree", 15, {"num_slots": -1}, "num_slots"),
            ("multi-tree", 15, {"num_packets": 4, "latency": False}, "latency"),
        ],
    )
    def test_malformed_arguments_raise_named_repro_errors(
        self, scheme, n, kwargs, named
    ):
        with pytest.raises(ReproError, match=named):
            compile_schedule(scheme, n, cache=ScheduleCache(), **kwargs)

    def test_zero_packets_compiles(self):
        compiled = compile_schedule(
            "multi-tree", 15, 3, num_packets=0, cache=ScheduleCache()
        )
        assert compiled.num_slots == build_protocol(
            "multi-tree", 15, 3
        ).slots_for_packets(0)

    def test_gossip_is_not_compilable(self):
        assert "gossip" not in COMPILABLE_SCHEMES
        with pytest.raises(ReproError):
            compile_schedule("gossip", 15, 3, num_slots=10, cache=ScheduleCache())


class TestKeyIdentity:
    def test_tokens_unique_across_configurations(self):
        keys = [
            ScheduleKey("multi-tree", "structured", 15, 3, 45),
            ScheduleKey("multi-tree", "greedy", 15, 3, 45),
            ScheduleKey("multi-tree", "structured", 15, 2, 45),
            ScheduleKey("multi-tree", "structured", 31, 3, 45),
            ScheduleKey("multi-tree", "structured", 15, 3, 46),
            ScheduleKey("hypercube", "cascade", 15, 3, 45),
            ScheduleKey("multi-tree", "structured", 15, 3, 45, mode="live_prebuffered"),
            ScheduleKey("multi-tree", "structured", 15, 3, 45, latency=2),
        ]
        tokens = [k.token() for k in keys]
        assert len(set(tokens)) == len(tokens)

    def test_constructions_do_not_collide_in_cache(self):
        cache = ScheduleCache()
        structured = compile_schedule(
            "multi-tree", 13, 3, num_packets=8, construction="structured", cache=cache
        )
        greedy = compile_schedule(
            "multi-tree", 13, 3, num_packets=8, construction="greedy", cache=cache
        )
        assert structured.key != greedy.key
        assert len(cache) == 2


class TestLatencyKey:
    """``latency`` is validated for every scheme and keyed only where the
    schedule depends on it (multi-tree)."""

    IGNORING = ("hypercube", "grouped-hypercube", "chain", "single-tree")

    @pytest.mark.parametrize("scheme", COMPILABLE_SCHEMES)
    @pytest.mark.parametrize("latency", [0, -7])
    def test_latency_below_one_rejected_before_any_protocol(
        self, monkeypatch, scheme, latency
    ):
        import repro.exec.compiler as compiler_module

        def no_protocol(*args, **kwargs):
            raise AssertionError("a protocol was built for a bad latency")

        monkeypatch.setattr(compiler_module, "build_protocol", no_protocol)
        with pytest.raises(ReproError, match=r"compile_schedule\.latency must be >= 1"):
            compile_schedule(
                scheme, 15, 3, num_packets=4, latency=latency, cache=ScheduleCache()
            )
        with pytest.raises(ReproError, match=r"compile_schedule\.latency"):
            schedule_key(scheme, 15, 3, num_slots=20, latency=latency)

    @pytest.mark.parametrize("scheme", IGNORING)
    def test_ignored_latency_is_pinned_to_one(self, scheme):
        cache = ScheduleCache()
        first = compile_schedule(scheme, 15, 3, num_packets=4, cache=cache)
        provenance: dict = {}
        again = compile_schedule(
            scheme, 15, 3, num_packets=4, latency=3, cache=cache,
            provenance=provenance,
        )
        assert again is first
        assert provenance["cache"] == "memory"
        assert len(cache) == 1
        assert first.key.latency == 1
        assert schedule_key(scheme, 15, 3, num_packets=4, latency=5) == first.key
        assert set(first.latencies) == {1}

    def test_multi_tree_keys_its_latency(self):
        cache = ScheduleCache()
        one = compile_schedule("multi-tree", 15, 3, num_packets=4, cache=cache)
        two = compile_schedule("multi-tree", 15, 3, num_packets=4, latency=2, cache=cache)
        assert (one.key.latency, two.key.latency) == (1, 2)
        assert one.key.token() != two.key.token()
        assert set(two.latencies) == {2}


class TestDegreeKey:
    """``degree`` is keyed only where the schedule depends on it: hypercube
    and chain ignore it, so every degree shares one cache entry."""

    @pytest.mark.parametrize(
        ("scheme", "num_nodes", "degrees"),
        [("hypercube", 15, (3, 2, -1)), ("chain", 5, (1, 2, -1))],
    )
    def test_ignored_degree_is_pinned_to_one(
        self, protocol_builds, scheme, num_nodes, degrees
    ):
        cache = ScheduleCache()
        schedules = [
            compile_schedule(scheme, num_nodes, d, num_packets=8, cache=cache)
            for d in degrees
        ]
        assert len({s.key.token() for s in schedules}) == 1
        assert len(cache) == 1
        assert protocol_builds == [scheme]  # one compile for every degree
        assert all(s is schedules[0] for s in schedules)
        assert schedules[0].key.degree == 1
        assert {schedule_key(scheme, num_nodes, d, num_packets=8) for d in degrees} == {
            schedules[0].key
        }

    @pytest.mark.parametrize("scheme", ["multi-tree", "grouped-hypercube", "single-tree"])
    def test_degree_sensitive_schemes_key_their_degree(self, scheme):
        keys = {schedule_key(scheme, 15, d, num_packets=8) for d in (2, 3)}
        assert {key.degree for key in keys} == {2, 3}


class TestEngineFastPathGuards:
    def test_short_compiled_schedule_rejected(self):
        compiled = compile_protocol(build_protocol("multi-tree", 7, 2), 5)
        with pytest.raises(ValueError):
            SimConfig(num_slots=10, compiled_schedule=compiled)

    def test_mismatched_population_rejected(self):
        compiled = compile_protocol(build_protocol("multi-tree", 7, 2), 10)
        with pytest.raises(ReproError):
            simulate(build_protocol("multi-tree", 15, 2), 10, compiled_schedule=compiled)

    def test_longer_compiled_schedule_allowed(self):
        # A schedule compiled past the simulated horizon replays its prefix.
        num_slots = _horizon("multi-tree", 7, 2)
        compiled = compile_protocol(build_protocol("multi-tree", 7, 2), num_slots)
        reference = simulate(build_protocol("multi-tree", 7, 2), num_slots - 3)
        replayed = simulate(
            build_protocol("multi-tree", 7, 2), num_slots - 3,
            compiled_schedule=compiled,
        )
        assert replayed.all_arrivals() == reference.all_arrivals()
