"""Tests for pipeline span tracing (repro.obs.spans) and Chrome export."""

from __future__ import annotations

import json

import pytest

from repro.obs.spans import (
    SPAN_SCHEMA,
    Span,
    SpanTracer,
    Timer,
    drain_worker_spans,
    install_span_context,
    span_rows,
    span_scope,
    worker_span,
)
from repro.reporting.export import spans_to_chrome_trace, write_chrome_trace_json


@pytest.fixture(autouse=True)
def _clear_worker_context():
    yield
    install_span_context(None)


class TestSpan:
    def test_round_trip(self):
        span = Span(
            name="compile", trace_id="t1", span_id="s1", parent_id=None,
            start_s=10.0, dur_s=0.5, pid=1234, attrs={"scheme": "multi-tree"},
        )
        assert Span.from_dict(span.to_dict()) == span
        assert tuple(span.to_dict()) == SPAN_SCHEMA


class TestSpanTracer:
    def test_records_nested_parents(self):
        tracer = SpanTracer(trace_id="t")
        with tracer.span("outer") as outer_id:
            assert tracer.current_span_id == outer_id
            with tracer.span("inner") as inner_id:
                assert tracer.current_span_id == inner_id
        assert tracer.current_span_id is None
        assert len(tracer) == 2
        inner, outer = tracer.finished  # completion order: inner first
        assert inner.name == "inner" and inner.parent_id == outer_id
        assert outer.name == "outer" and outer.parent_id is None
        assert inner.dur_s <= outer.dur_s
        assert all(s.trace_id == "t" for s in tracer.finished)

    def test_span_recorded_on_exception(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert len(tracer) == 1
        assert tracer.finished[0].name == "doomed"

    def test_attrs_ride_along(self):
        tracer = SpanTracer()
        with tracer.span("execute", tasks=30):
            pass
        assert tracer.finished[0].attrs == {"tasks": 30}

    def test_span_ids_unique(self):
        tracer = SpanTracer()
        for _ in range(5):
            with tracer.span("x"):
                pass
        ids = [s.span_id for s in tracer.finished]
        assert len(ids) == len(set(ids))

    def test_context_carries_open_parent(self):
        tracer = SpanTracer(trace_id="tc")
        assert tracer.context() == {"trace_id": "tc", "parent_id": None}
        with tracer.span("outer") as outer_id:
            assert tracer.context() == {"trace_id": "tc", "parent_id": outer_id}

    def test_adopt_rewrites_foreign_trace_id(self):
        tracer = SpanTracer(trace_id="parent")
        foreign = Span(
            name="w", trace_id="other", span_id="w1", parent_id="p",
            start_s=1.0, dur_s=0.1, pid=99,
        )
        tracer.adopt([foreign.to_dict()])
        adopted = tracer.finished[0]
        assert adopted.trace_id == "parent"
        assert adopted.span_id == "w1" and adopted.parent_id == "p"


class TestWorkerSpans:
    def test_noop_without_context(self):
        with worker_span("task"):
            pass
        assert drain_worker_spans() == []

    def test_records_under_installed_context(self):
        install_span_context({"trace_id": "tw", "parent_id": "root"})
        with worker_span("session.replay", session=4):
            pass
        spans = drain_worker_spans()
        assert len(spans) == 1
        assert spans[0]["trace_id"] == "tw"
        assert spans[0]["parent_id"] == "root"
        assert spans[0]["attrs"] == {"session": 4}
        assert drain_worker_spans() == []  # drained

    def test_install_clears_buffer(self):
        install_span_context({"trace_id": "a", "parent_id": None})
        with worker_span("x"):
            pass
        install_span_context({"trace_id": "b", "parent_id": None})
        assert drain_worker_spans() == []


def _span(name, span_id, dur_s, parent_id=None) -> Span:
    return Span(
        name=name, trace_id="t", span_id=span_id, parent_id=parent_id,
        start_s=0.0, dur_s=dur_s, pid=1,
    )


class TestSpanRows:
    def test_self_time_subtracts_direct_children(self):
        rows = span_rows([
            _span("grandchild", "s3", 0.25, parent_id="s2"),
            _span("child", "s2", 1.0, parent_id="s1"),
            _span("parent", "s1", 3.0),
        ])
        by_name = {row["name"]: row for row in rows}
        assert by_name["parent"]["self_s"] == pytest.approx(2.0)
        assert by_name["parent"]["total_s"] == pytest.approx(3.0)
        # Only direct children count: the grandchild comes off the child.
        assert by_name["child"]["self_s"] == pytest.approx(0.75)
        assert by_name["grandchild"]["self_s"] == pytest.approx(0.25)

    def test_sorted_by_self_time(self):
        rows = span_rows([
            _span("child", "s2", 2.5, parent_id="s1"),
            _span("parent", "s1", 3.0),
            _span("leaf", "s3", 1.0),
        ])
        assert [row["name"] for row in rows] == ["child", "leaf", "parent"]
        assert [row["self_s"] for row in rows] == pytest.approx([2.5, 1.0, 0.5])

    def test_shares_sum_to_100(self):
        rows = span_rows([
            _span("deliver", "s1", 0.3),
            _span("deliver", "s2", 0.4),
            _span("schedule", "s3", 0.2),
            _span("validate", "s4", 0.1),
        ])
        assert sum(row["share_pct"] for row in rows) == pytest.approx(100.0)
        deliver = rows[0]
        assert deliver["name"] == "deliver"
        assert deliver["calls"] == 2
        assert deliver["mean_us"] == pytest.approx(350_000.0)
        assert deliver["max_us"] == pytest.approx(400_000.0)
        assert deliver["share_pct"] == pytest.approx(70.0)

    def test_empty_tracer_yields_no_rows(self):
        assert span_rows(SpanTracer().finished) == []

    def test_recorded_spans_aggregate(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        rows = {row["name"]: row for row in span_rows(tracer.finished)}
        assert rows["outer"]["calls"] == rows["inner"]["calls"] == 3
        assert rows["outer"]["self_s"] <= rows["outer"]["total_s"]


class TestSpanScope:
    def test_no_tracer_is_a_shared_no_op(self):
        with span_scope(None, "schedule") as span_id:
            assert span_id is None
        assert span_scope(None, "a") is span_scope(None, "b")

    def test_opens_a_span_on_the_tracer(self):
        tracer = SpanTracer()
        with span_scope(tracer, "control.decide", epoch=3) as span_id:
            assert tracer.current_span_id == span_id
        (span,) = tracer.finished
        assert span.name == "control.decide"
        assert span.attrs == {"epoch": 3}


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed > 0.0


class TestChromeExport:
    def _tracer(self) -> SpanTracer:
        tracer = SpanTracer(trace_id="tx")
        with tracer.span("fleet.execute", tasks=8):
            with tracer.span("session.replay", session=0):
                pass
        return tracer

    def test_events_shape(self):
        trace = spans_to_chrome_trace(self._tracer())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["id"] == "tx"
        child = next(e for e in events if e["name"] == "session.replay")
        assert "parent_id" in child["args"]
        assert child["args"]["session"] == 0

    def test_accepts_plain_span_iterable(self):
        spans = self._tracer().finished
        trace = spans_to_chrome_trace(spans)
        assert len(trace["traceEvents"]) == 2

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace_json(self._tracer(), path)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == 2
        assert {e["name"] for e in loaded["traceEvents"]} == {
            "fleet.execute", "session.replay",
        }
