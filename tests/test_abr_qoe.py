"""QoE accounting tests, including the subsystem's two property tests:

* the startup/play/rebuffer slot counts always partition the session length;
* a trace that covers the lowest ladder rung in every slot can never
  rebuffer (the panic rule's structural guarantee).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr import (
    QOE_TIERS,
    AbrSessionSpec,
    QoEMetrics,
    classify_tier,
    collect_qoe,
    qoe_from_slot_log,
    run_session,
)
from repro.abr.qoe import PREMIUM_BITRATE
from repro.abr.traces import CapacityTrace
from repro.core.errors import ReproError


class TestClassifyTier:
    def test_any_rebuffer_degrades(self):
        assert classify_tier(8.0, 1) == "degraded"

    def test_premium_threshold(self):
        assert classify_tier(PREMIUM_BITRATE, 0) == "premium"
        assert classify_tier(PREMIUM_BITRATE - 0.01, 0) == "standard"

    def test_negative_events_rejected(self):
        with pytest.raises(ReproError):
            classify_tier(1.0, -1)


class TestSlotLogValidation:
    def test_length_mismatch(self):
        with pytest.raises(ReproError, match="lengths differ"):
            qoe_from_slot_log(["play"], [])

    def test_startup_after_playback_named(self):
        with pytest.raises(ReproError, match="slot 2: startup slot after"):
            qoe_from_slot_log(["startup", "play", "startup"], [0.0, 1.0, 0.0])

    def test_nonzero_rate_on_stall_named(self):
        with pytest.raises(ReproError, match="slot 1: rebuffer slot carries"):
            qoe_from_slot_log(["play", "rebuffer"], [1.0, 2.0])

    def test_zero_rate_play_named(self):
        with pytest.raises(ReproError, match="slot 0: play slot with non-positive"):
            qoe_from_slot_log(["play"], [0.0])

    def test_unknown_state_named(self):
        with pytest.raises(ReproError, match="slot 1: unknown slot state"):
            qoe_from_slot_log(["startup", "paused"], [0.0, 0.0])


class TestQoEMetrics:
    def test_partition_enforced_at_construction(self):
        with pytest.raises(ReproError, match="do not partition"):
            QoEMetrics(
                session_slots=10, startup_slots=2, played_slots=3,
                rebuffer_slots=1, rebuffer_events=1, mean_bitrate=1.0,
                bitrate_switches=0, smoothness_penalty=0.0, score=0.0,
                tier="degraded",
            )

    def test_unknown_tier_rejected(self):
        with pytest.raises(ReproError, match="unknown QoE tier"):
            QoEMetrics(
                session_slots=1, startup_slots=1, played_slots=0,
                rebuffer_slots=0, rebuffer_events=0, mean_bitrate=0.0,
                bitrate_switches=0, smoothness_penalty=0.0, score=0.0,
                tier="gold",
            )

    def test_dict_round_trip(self):
        qoe = qoe_from_slot_log(
            ["startup", "play", "play", "rebuffer", "play"],
            [0.0, 2.0, 4.0, 0.0, 1.0],
        )
        assert QoEMetrics.from_dict(qoe.to_dict()) == qoe
        with pytest.raises(ReproError, match="missing field"):
            QoEMetrics.from_dict({"session_slots": 1})

    @pytest.mark.parametrize(("change", "message"), [
        ({"rebuffer_events": "many"}, "qoe: field 'rebuffer_events' must be int, got 'many'"),
        ({"tier": 7}, "qoe: field 'tier' must be str, got 7"),
        ({"tier": "gold"}, "qoe: unknown QoE tier 'gold'"),
        ({"played_slots": 9}, "qoe: QoE slot counts do not partition the session"),
    ], ids=["str-events", "int-tier", "unknown-tier", "no-partition"])
    def test_malformed_dict_rejected(self, change, message):
        qoe = qoe_from_slot_log(["startup", "play", "rebuffer"], [0.0, 2.0, 0.0])
        with pytest.raises(ReproError, match=message):
            QoEMetrics.from_dict({**qoe.to_dict(), **change})

    def test_switch_and_smoothness_accounting(self):
        qoe = qoe_from_slot_log(
            ["play", "play", "play", "play"], [2.0, 2.0, 4.0, 1.0]
        )
        assert qoe.bitrate_switches == 2
        assert qoe.smoothness_penalty == pytest.approx(2.0 + 3.0)
        assert qoe.rebuffer_events == 0

    def test_rebuffer_events_count_maximal_runs(self):
        qoe = qoe_from_slot_log(
            ["play", "rebuffer", "rebuffer", "play", "rebuffer"],
            [1.0, 0.0, 0.0, 1.0, 0.0],
        )
        assert qoe.rebuffer_slots == 3
        assert qoe.rebuffer_events == 2
        assert qoe.tier == "degraded"


# --------------------------------------------------------------- properties
_spec_strategy = st.builds(
    AbrSessionSpec,
    num_chunks=st.integers(min_value=1, max_value=12),
    chunk_slots=st.integers(min_value=1, max_value=5),
    startup_chunks=st.integers(min_value=1, max_value=4),
    max_buffer_chunks=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
)


@st.composite
def _covering_trace(draw):
    """A trace whose every slot covers DEFAULT_LADDER's lowest rung (1.0)."""
    caps = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=16.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=24,
        )
    )
    return CapacityTrace(name="hypothesis", capacities=tuple(caps))


@st.composite
def _any_trace(draw):
    """Any valid trace, including slots below the lowest rung."""
    caps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=16.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=24,
        ).filter(lambda xs: max(xs) >= 0.5)
    )
    return CapacityTrace(name="hypothesis", capacities=tuple(caps))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(spec=_spec_strategy, trace=_any_trace())
    def test_slots_partition_session_length(self, spec, trace):
        try:
            result = run_session(spec, trace)
        except ReproError:
            # A trace that starves even the lowest rung hits the slot
            # ceiling; that path raises rather than looping forever.
            return
        qoe = collect_qoe(result)
        assert (
            qoe.startup_slots + qoe.played_slots + qoe.rebuffer_slots
            == qoe.session_slots
            == result.session_slots
        )
        assert qoe.tier in QOE_TIERS

    @settings(max_examples=60, deadline=None)
    @given(spec=_spec_strategy, trace=_covering_trace())
    def test_covering_trace_never_rebuffers(self, spec, trace):
        result = run_session(spec, trace)
        qoe = collect_qoe(result)
        assert qoe.rebuffer_events == 0
        assert qoe.rebuffer_slots == 0
        assert qoe.tier in ("premium", "standard")
