"""Tests for structured event tracing and sinks (repro.obs.events)."""

from __future__ import annotations

import json

import pytest

from repro.obs.events import (
    EVENT_SCHEMA,
    TX_DELIVERED,
    TX_SENT,
    Event,
    EventTracer,
    JsonlSink,
    RingBufferSink,
    arrivals_from_events,
    count_events,
    read_events_jsonl,
)


class TestSchema:
    def test_every_name_constant_is_in_schema(self):
        import repro.obs.events as ev

        names = {
            getattr(ev, attr)
            for attr in ev.__all__
            if attr.isupper() and attr != "EVENT_SCHEMA"
        }
        assert names == set(EVENT_SCHEMA)

    def test_schema_entries_shape(self):
        for name, (emitter, fields) in EVENT_SCHEMA.items():
            assert emitter in {
                "engine", "repair", "playback", "churn", "service", "control",
            }, name
            assert all(isinstance(f, str) for f in fields), name


class TestEvent:
    def test_round_trip(self):
        event = Event(name=TX_SENT, slot=4, fields={"sender": 0, "receiver": 2, "packet": 1})
        assert Event.from_dict(event.to_dict()) == event

    def test_to_dict_flattens_fields(self):
        d = Event(name="x", slot=1, fields={"a": 2}).to_dict()
        assert d == {"event": "x", "slot": 1, "a": 2}


class TestRingBufferSink:
    def test_keeps_tail(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.emit(Event(name="e", slot=i))
        assert [e.slot for e in sink.events] == [2, 3, 4]
        assert sink.total_emitted == 5

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            Event(name=TX_SENT, slot=0, fields={"sender": 0, "receiver": 1, "packet": 0}),
            Event(name=TX_DELIVERED, slot=1,
                  fields={"sender": 0, "receiver": 1, "packet": 0, "new": True}),
        ]
        sink = JsonlSink(path)
        for e in events:
            sink.emit(e)
        sink.close()
        assert sink.lines_written == 2
        assert read_events_jsonl(path) == events
        # One compact JSON object per line.
        lines = path.read_text().splitlines()
        assert all(json.loads(line)["event"] for line in lines)

    def test_counts_survive_round_trip(self, tmp_path):
        """JSONL written -> reloaded -> same per-name counters (satellite)."""
        path = tmp_path / "events.jsonl"
        tracer = EventTracer(JsonlSink(path))
        tracer.emit(TX_SENT, 0, sender=0, receiver=1, packet=0)
        tracer.emit(TX_SENT, 1, sender=0, receiver=2, packet=0)
        tracer.emit(TX_DELIVERED, 1, sender=0, receiver=1, packet=0, new=True)
        tracer.close()
        assert count_events(read_events_jsonl(path)) == tracer.counts


class TestEventTracer:
    def test_fans_out_and_counts(self):
        a, b = RingBufferSink(), RingBufferSink()
        tracer = EventTracer(a)
        tracer.add_sink(b)
        tracer.emit("e1", 0)
        tracer.emit("e1", 1)
        tracer.emit("e2", 1, node=3)
        assert tracer.counts == {"e1": 2, "e2": 1}
        assert len(a.events) == len(b.events) == 3
        assert b.events[-1].fields == {"node": 3}

    def test_context_manager_closes_sinks(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventTracer(JsonlSink(path)) as tracer:
            tracer.emit("e", 0)
        assert read_events_jsonl(path) == [Event(name="e", slot=0)]


class TestSampling:
    """Sampling was removed in v15.0.0: every event reaches every sink."""

    def test_validation(self):
        for keyword in ("sample_rate", "seed"):
            with pytest.raises(TypeError):
                EventTracer(**{keyword: 1})

    def test_full_rate_keeps_everything(self):
        sink = RingBufferSink()
        tracer = EventTracer(sink)
        for i in range(50):
            tracer.emit("e", i)
        assert sink.total_emitted == 50
        assert "sampled_out" not in tracer.counts


class TestReplay:
    def test_replay_first_arrival_wins(self):
        events = [
            Event(name=TX_DELIVERED, slot=3,
                  fields={"sender": 0, "receiver": 5, "packet": 0, "new": True}),
            Event(name=TX_DELIVERED, slot=4,
                  fields={"sender": 1, "receiver": 5, "packet": 0, "new": False}),
            Event(name=TX_DELIVERED, slot=4,
                  fields={"sender": 1, "receiver": 6, "packet": 0, "new": True}),
            Event(name=TX_SENT, slot=2,
                  fields={"sender": 0, "receiver": 5, "packet": 1}),
        ]
        assert arrivals_from_events(events) == {5: {0: 3}, 6: {0: 4}}
