"""Tests for the zero-dependency metrics registry (repro.obs.registry)."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    active_registry,
    global_registry,
    use_registry,
)


class TestCounter:
    def test_inc_and_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("engine.runs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("engine.runs") is c  # get-or-create

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("tx", scheme="multi-tree")
        b = reg.counter("tx", scheme="hypercube")
        a.inc(3)
        assert a is not b
        assert b.value == 0
        # Label order is irrelevant to identity.
        assert reg.counter("tx", d="2", scheme="x") is reg.counter("tx", scheme="x", d="2")

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = MetricsRegistry().gauge("depth")
        g.set(7)
        g.add(-2)
        assert g.value == 5


class TestHistogram:
    def test_observe_stats(self):
        h = MetricsRegistry().histogram("delay")
        for v in (1, 3, 3, 500):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 507
        assert h.min == 1
        assert h.max == 500
        assert h.mean == pytest.approx(507 / 4)

    def test_bucketing(self):
        h = MetricsRegistry().histogram("delay", buckets=(10, 100))
        for v in (5, 10, 50, 1000):
            h.observe(v)
        # bisect_left: 5,10 -> bucket <=10; 50 -> <=100; 1000 -> overflow
        assert h.bucket_counts == [2, 1, 1]

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("x", buckets=(5, 5))
        with pytest.raises(ValueError):
            reg.histogram("y", buckets=(5, 1))


class TestSnapshotMerge:
    def test_snapshot_is_plain_and_picklable(self):
        reg = MetricsRegistry()
        reg.counter("a", k="v").inc(2)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(9)
        snap = reg.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap["counters"] == [{"name": "a", "labels": {"k": "v"}, "value": 2}]

    def test_merge_counters_add_gauges_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        a.gauge("g").set(5)
        b.counter("n").inc(3)
        b.gauge("g").set(2)
        a.merge(b.snapshot())
        assert a.counter("n").value == 5
        assert a.gauge("g").value == 5  # max, order-independent

    def test_merge_histograms_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe(1)
        b.histogram("h").observe(100)
        b.histogram("h").observe(2)
        a.merge(b.snapshot())
        h = a.histogram("h")
        assert (h.count, h.sum, h.min, h.max) == (3, 103, 1, 100)

    def test_merge_is_order_independent(self):
        snaps = []
        for values in ((1, 2), (50,), (7, 7, 7)):
            reg = MetricsRegistry()
            for v in values:
                reg.counter("n").inc(v)
                reg.histogram("h").observe(v)
                reg.gauge("g").set(v)
            snaps.append(reg.snapshot())
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for s in snaps:
            fwd.merge(s)
        for s in reversed(snaps):
            rev.merge(s)
        assert fwd.snapshot() == rev.snapshot()

    def test_merge_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2))
        b.histogram("h", buckets=(1, 3)).observe(1)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": [], "gauges": [], "histograms": []}

    def test_rows_sorted_and_labeled(self):
        reg = MetricsRegistry()
        reg.counter("b.z").inc()
        reg.counter("a.a", scheme="mt").inc(2)
        reg.histogram("h").observe(4)
        rows = reg.rows()
        assert [r["name"] for r in rows] == ["a.a", "b.z", "h"]
        assert rows[0]["labels"] == "scheme=mt"
        assert "count=1" in str(rows[2]["value"])


class TestActiveRegistry:
    def test_defaults_to_global(self):
        assert active_registry() is global_registry()

    def test_use_registry_swaps_and_restores(self):
        mine = MetricsRegistry()
        with use_registry(mine) as got:
            assert got is mine
            assert active_registry() is mine
            inner = MetricsRegistry()
            with use_registry(inner):
                assert active_registry() is inner
            assert active_registry() is mine
        assert active_registry() is global_registry()

    def test_use_registry_is_thread_local(self):
        mine = MetricsRegistry()
        seen = []

        def other_thread():
            seen.append(active_registry())

        with use_registry(mine):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert seen == [global_registry()]

    def test_thread_safe_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("n")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000
