"""Tests for tumbling-window time series (repro.obs.timeseries)."""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.obs.timeseries import TimeSeries


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            TimeSeries(0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(4).count("x", -1)

    def test_observe_needs_a_value(self):
        ts = TimeSeries(4)
        with pytest.raises(ValueError, match="at least one value"):
            ts.observe("delay", 0)
        assert ts.num_windows == 0


class TestWindowing:
    def test_counts_bucket_by_window(self):
        ts = TimeSeries(window=4)
        for t in (0, 1, 3):
            ts.count("arrivals", t)
        ts.count("arrivals", 4, amount=2)
        ts.count("arrivals", 11)
        assert ts.windows() == [0, 1, 2]
        assert ts.series("arrivals") == [(0, 3.0), (1, 2.0), (2, 1.0)]
        assert ts.total("arrivals") == 6.0

    def test_series_dense_over_gap(self):
        ts = TimeSeries(window=2)
        ts.count("x", 0)
        ts.count("x", 9)
        assert ts.series("x") == [(0, 1.0), (1, 0.0), (2, 0.0), (3, 0.0), (4, 1.0)]

    def test_rate_divides_by_window(self):
        ts = TimeSeries(window=8)
        ts.count("done", 3, amount=4)
        assert ts.rate("done") == [(0, 0.5)]

    def test_sketch_quantiles_per_window(self):
        ts = TimeSeries(window=4)
        for v in (1, 2, 3, 4):
            ts.observe("delay", 0, v)
        ts.observe("delay", 6, 40)
        quantiles = ts.quantile("delay", 50)
        assert quantiles == [(0, 2), (1, 40)]

    def test_observe_counts_every_value_once_per_occurrence(self):
        one_call, per_value = TimeSeries(window=4), TimeSeries(window=4)
        one_call.observe("delay", 1, 3, 3, 7)
        for value in (3, 3, 7):
            per_value.observe("delay", 1, value)
        assert one_call.to_dict() == per_value.to_dict()
        assert one_call.rows()[0]["count"] == 3

    def test_many_distinct_floats_stay_exact(self):
        # A dense lossy fleet's rebuffer ratios: far more distinct values in
        # one window than a bucketed sketch's 256-value budget.
        rng = random.Random(25)
        values = [rng.randrange(1, 10_000) / 10_000 for _ in range(2_000)]
        assert len(set(values)) > 256
        ts = TimeSeries(window=8)
        for value in values:
            ts.observe("fleet.rebuffer_ratio", 3, value)
        ordered = sorted(values)
        want = {q: ordered[max(1, math.ceil(q * len(values) / 100)) - 1] for q in (50, 99)}
        for q, value in want.items():
            assert ts.quantile("fleet.rebuffer_ratio", q) == [(0, value)]
        (row,) = ts.rows()
        assert (row["count"], row["p50"], row["p99"], row["max"]) == (
            len(values), want[50], want[99], ordered[-1]
        )

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.windows() == []
        assert ts.series("missing") == []
        assert ts.total("missing") == 0.0
        assert ts.num_windows == 0


class TestRendering:
    def test_rows_cover_every_kind(self):
        ts = TimeSeries(window=4)
        ts.count("admitted", 0, amount=3)
        ts.observe("delay", 2, 7)
        rows = ts.rows()
        kinds = {(row["series"], row["kind"]) for row in rows}
        assert kinds == {("admitted", "counter"), ("delay", "sketch")}
        counter = next(r for r in rows if r["kind"] == "counter")
        assert counter["value"] == 3.0
        assert counter["rate"] == pytest.approx(0.75)
        assert counter["start_slot"] == 0
        sketch = next(r for r in rows if r["kind"] == "sketch")
        assert sketch["count"] == 1
        assert sketch["p50"] == 7

    def test_to_dict_is_json_ready(self):
        ts = TimeSeries(window=2)
        ts.count("a", 0)
        ts.observe("s", 3, 9)
        payload = json.loads(json.dumps(ts.to_dict()))
        assert payload["window"] == 2
        assert payload["windows"]["0"] == {"counters": {"a": 1.0}, "sketches": {}}
        assert payload["windows"]["1"]["sketches"]["s"] == [[9, 1]]
        assert "relative_error" not in payload
