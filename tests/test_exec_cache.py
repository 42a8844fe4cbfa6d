"""Content-addressed schedule cache: the in-process LRU and its tokens."""

from __future__ import annotations

import pytest

import repro.exec.cache as cache_mod
from repro.core.errors import ReproError
from repro.exec.cache import CACHE_VERSION, ScheduleCache, ScheduleKey, default_cache
from repro.exec.compiler import build_protocol, compile_protocol
from repro.obs import MetricsRegistry
from repro.obs.registry import use_registry


def _key(num_slots=21, **overrides) -> ScheduleKey:
    fields = {
        "scheme": "multi-tree",
        "construction": "structured",
        "num_nodes": 7,
        "degree": 2,
        "num_slots": num_slots,
    }
    fields.update(overrides)
    return ScheduleKey(**fields)


def _builder(num_slots=21, calls=None):
    def build():
        if calls is not None:
            calls.append(1)
        return compile_protocol(build_protocol("multi-tree", 7, 2), num_slots)

    return build


class TestMemoryLayer:
    def test_second_lookup_hits_memory(self):
        cache = ScheduleCache()
        calls: list[int] = []
        provenance: dict = {}
        first = cache.get_or_compile(_key(), _builder(calls=calls), provenance)
        assert provenance["cache"] == "miss"
        second = cache.get_or_compile(_key(), _builder(calls=calls), provenance)
        assert provenance["cache"] == "memory"
        assert second is first
        assert calls == [1]

    def test_lru_eviction_order(self):
        cache = ScheduleCache(capacity=2)
        k1, k2, k3 = _key(21), _key(24), _key(27)
        cache.put(k1, "s1")
        cache.put(k2, "s2")
        cache.get(k1)  # refresh k1; k2 becomes least recent
        cache.put(k3, "s3")
        assert cache.get(k1) == "s1"
        assert cache.get(k2) is None
        assert cache.get(k3) == "s3"
        assert len(cache) == 2

    def test_hit_and_miss_counters(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            cache = ScheduleCache()
            cache.get_or_compile(_key(), _builder())
            cache.get_or_compile(_key(), _builder())
        assert registry.counter("schedule_cache.miss").value == 1
        assert registry.counter("schedule_cache.hit", layer="memory").value == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ScheduleCache(capacity=0)


class TestNoDiskLayer:
    """The on-disk layer was removed in v11.0.0: the LRU is the only store."""

    def test_disk_true_raises(self):
        with pytest.raises(ReproError, match="removed in v11.0.0"):
            ScheduleCache(disk=True)

    @pytest.mark.parametrize("option", ["disk_dir", "max_disk_bytes"])
    def test_disk_options_are_gone(self, tmp_path, option):
        with pytest.raises(TypeError):
            ScheduleCache(**{option: tmp_path if option == "disk_dir" else 4096})
        assert not hasattr(ScheduleCache(), option)
        assert not hasattr(ScheduleCache, "get_with_layer")

    def test_cache_dir_variable_writes_nothing(self, tmp_path, monkeypatch):
        target = tmp_path / "schedules"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        cache = ScheduleCache()
        cache.get_or_compile(_key(), _builder())
        cache.clear()
        provenance: dict = {}
        cache.get_or_compile(_key(), _builder(), provenance)
        assert provenance["cache"] == "miss"
        assert not target.exists()


class TestTokens:
    def test_token_embeds_cache_version(self, monkeypatch):
        before = _key().token()
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", CACHE_VERSION + 1)
        assert _key().token() != before

    def test_token_is_stable(self):
        assert _key().token() == _key().token()

    def test_default_cache_is_a_singleton(self):
        assert default_cache() is default_cache()
