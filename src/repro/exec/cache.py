"""Content-addressed cache for compiled schedules.

A compiled schedule is a pure function of its :class:`ScheduleKey` — scheme,
construction, population ``N``, degree ``d``, horizon ``D`` (slots), stream
mode, and link latency ``T_c`` — so identical keys across seeds, drop rates,
and churn variants of a sweep can share one lowering.  The cache has two
layers:

* an **in-process LRU** (always on) bounded by ``capacity`` entries;
* an **optional on-disk layer** under ``~/.cache/repro/schedules`` (or
  ``$REPRO_CACHE_DIR``) with versioned, content-addressed file names and a
  corruption-safe load path: any unreadable, truncated, or version-skewed
  entry is treated as a miss and recompiled, never raised.

The disk layer is off by default so test runs stay hermetic; enable it with
``ScheduleCache(disk=True)`` or by exporting ``REPRO_CACHE_DIR``.  Its size
is bounded: ``max_disk_bytes`` (or ``$REPRO_CACHE_MAX_BYTES``) caps the
directory, evicting least-recently-used entries (mtime order; hits refresh
recency) and counting each eviction as ``schedule_cache.evict``.

Hit/miss traffic is counted on the :func:`~repro.obs.active_registry`
(``schedule_cache.hit{layer=memory|disk}`` / ``schedule_cache.miss``) so
sweeps report their amortization through the normal metrics path.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.errors import ReproError
from repro.obs.registry import active_registry

__all__ = ["CACHE_VERSION", "ScheduleKey", "ScheduleCache", "default_cache"]

#: Bump when the compiled representation changes; stale disk entries become
#: unreachable (their tokens embed the old version) rather than misread.
CACHE_VERSION = 1

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"


@dataclass(frozen=True, slots=True)
class ScheduleKey:
    """Identity of one compiled schedule.

    Attributes:
        scheme: protocol family (``multi-tree``, ``hypercube``, ...).
        construction: forest construction (``structured``/``greedy``) or the
            scheme's fixed construction tag (e.g. ``cascade``).
        num_nodes: receiver count ``N``.
        degree: tree degree / source capacity ``d``.
        num_slots: compiled horizon ``D`` in slots.
        mode: stream mode (``prerecorded``/``live_prebuffered``/``-``).
        latency: link latency ``T_c`` in slots.
    """

    scheme: str
    construction: str
    num_nodes: int
    degree: int
    num_slots: int
    mode: str = "prerecorded"
    latency: int = 1

    def token(self) -> str:
        """Stable content address (embeds :data:`CACHE_VERSION`)."""
        canonical = (
            f"v{CACHE_VERSION}|{self.scheme}|{self.construction}|"
            f"N{self.num_nodes}|d{self.degree}|D{self.num_slots}|"
            f"{self.mode}|Tc{self.latency}"
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


def _default_disk_dir() -> Path:
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "schedules"


class ScheduleCache:
    """Two-layer (memory LRU + optional disk) cache keyed by :class:`ScheduleKey`.

    Args:
        capacity: max in-process entries (least recently used evicted).
        disk: enable the on-disk layer.  Defaults to True only when
            ``$REPRO_CACHE_DIR`` is set, so plain library use never writes
            outside the process.
        disk_dir: on-disk location override (implies ``disk=True``).
        max_disk_bytes: disk-layer byte budget; oldest (LRU by mtime)
            entries are evicted after each store to stay under it.  Defaults
            to ``$REPRO_CACHE_MAX_BYTES`` when set, else unbounded.
    """

    def __init__(
        self,
        *,
        capacity: int = 32,
        disk: bool | None = None,
        disk_dir: str | Path | None = None,
        max_disk_bytes: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        if disk_dir is not None:
            disk = True
        elif disk is None:
            disk = _ENV_DIR in os.environ
        self._disk_dir = (
            Path(disk_dir) if disk_dir is not None else _default_disk_dir()
        ) if disk else None
        if max_disk_bytes is None:
            env_budget = os.environ.get(_ENV_MAX_BYTES)
            if env_budget:
                try:
                    max_disk_bytes = int(env_budget)
                except ValueError:
                    raise ValueError(
                        f"${_ENV_MAX_BYTES} must be an integer byte count, "
                        f"got {env_budget!r}"
                    ) from None
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError(
                f"max_disk_bytes must be >= 1, got {max_disk_bytes}"
            )
        self.max_disk_bytes = max_disk_bytes
        self._memory: OrderedDict[str, object] = OrderedDict()

    # ------------------------------------------------------------------ layers
    @property
    def disk_dir(self) -> Path | None:
        """Directory of the disk layer, or None when disk caching is off."""
        return self._disk_dir

    def _path_for(self, token: str) -> Path:
        if self._disk_dir is None:
            raise ReproError("disk cache layer is disabled; no path for token")
        return self._disk_dir / f"{token}.pkl"

    def _disk_load(self, key: ScheduleKey, token: str) -> Any:
        """Corruption-safe disk read: any failure is a miss, never an error."""
        if self._disk_dir is None:
            return None
        path = self._path_for(token)
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (
                envelope.get("version") != CACHE_VERSION
                or envelope.get("token") != token
                or envelope.get("key") != key
            ):
                raise ValueError("cache envelope mismatch")
            try:
                # Refresh recency so byte-budget eviction is truly LRU.
                os.utime(path)
            except OSError:  # pragma: no cover - best effort
                pass
            return envelope["schedule"]
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupted / truncated / stale entry: drop it and recompile.
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best effort
                pass
            return None

    def _disk_store(self, key: ScheduleKey, token: str, schedule: Any) -> None:
        if self._disk_dir is None:
            return
        envelope = {
            "version": CACHE_VERSION,
            "token": token,
            "key": key,
            "schedule": schedule,
        }
        try:
            self._disk_dir.mkdir(parents=True, exist_ok=True)
            # Atomic publish: readers never observe a partial pickle.
            fd, tmp = tempfile.mkstemp(dir=self._disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._path_for(token))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:  # pragma: no cover - disk layer is best effort
            return
        self._disk_evict(keep=token)

    def _disk_evict(self, *, keep: str | None = None) -> None:
        """Delete LRU entries until the disk layer fits ``max_disk_bytes``.

        The entry named by ``keep`` (the one just stored) survives even when
        it alone exceeds the budget — storing must never evict the schedule
        the caller is about to use.
        """
        if self._disk_dir is None or self.max_disk_bytes is None:
            return
        try:
            entries = []
            total = 0
            for path in self._disk_dir.glob("*.pkl"):
                stat = path.stat()
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            entries.sort()  # oldest first
            for _, size, path in entries:
                if total <= self.max_disk_bytes:
                    break
                if keep is not None and path.stem == keep:
                    continue
                path.unlink(missing_ok=True)
                total -= size
                active_registry().counter("schedule_cache.evict").inc()
        except OSError:  # pragma: no cover - best effort
            pass

    # --------------------------------------------------------------------- api
    def get(self, key: ScheduleKey) -> Any:
        """Cached schedule for ``key`` or None (checks memory, then disk)."""
        schedule, _ = self.get_with_layer(key)
        return schedule

    def get_with_layer(self, key: ScheduleKey) -> tuple[Any, str | None]:
        """``(schedule, layer)`` where layer is ``memory``/``disk``/None."""
        token = key.token()
        if token in self._memory:
            self._memory.move_to_end(token)
            active_registry().counter("schedule_cache.hit", layer="memory").inc()
            return self._memory[token], "memory"
        schedule = self._disk_load(key, token)
        if schedule is not None:
            self._remember(token, schedule)
            active_registry().counter("schedule_cache.hit", layer="disk").inc()
            return schedule, "disk"
        return None, None

    def put(self, key: ScheduleKey, schedule: Any) -> None:
        token = key.token()
        self._remember(token, schedule)
        self._disk_store(key, token, schedule)

    def get_or_compile(
        self,
        key: ScheduleKey,
        builder: Callable[[], Any],
        provenance: dict[str, Any] | None = None,
    ) -> Any:
        """Return the cached schedule or build, store, and return a fresh one.

        Args:
            key: schedule identity.
            builder: zero-argument callable compiling the schedule on a miss.
            provenance: optional dict; receives ``cache`` (``memory``/``disk``/
                ``miss``) and ``cache_token``.
        """
        schedule, layer = self.get_with_layer(key)
        if schedule is None:
            active_registry().counter("schedule_cache.miss").inc()
            schedule = builder()
            self.put(key, schedule)
            layer = "miss"
        if provenance is not None:
            provenance["cache"] = layer
            provenance["cache_token"] = key.token()
        return schedule

    def invalidate(self, key: ScheduleKey) -> bool:
        """Drop one entry from every layer; True if anything was evicted.

        The control plane's re-cache path: after a churn repair rewrites a
        session kind's forest, the kind's schedule token is invalidated and
        the next :meth:`get_or_compile` recompiles and re-caches it —
        exactly one token's work, the rest of the cache stays warm.  Counted
        as ``schedule_cache.invalidate`` on the active registry.
        """
        token = key.token()
        dropped = self._memory.pop(token, None) is not None
        if self._disk_dir is not None:
            path = self._path_for(token)
            if path.exists():
                try:
                    path.unlink()
                    dropped = True
                except OSError:  # pragma: no cover - best effort
                    pass
        if dropped:
            active_registry().counter("schedule_cache.invalidate").inc()
        return dropped

    def _remember(self, token: str, schedule: Any) -> None:
        self._memory[token] = schedule
        self._memory.move_to_end(token)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop the in-process layer (disk entries are left in place)."""
        self._memory.clear()


_DEFAULT: ScheduleCache | None = None


def default_cache() -> ScheduleCache:
    """The process-wide cache used when callers do not supply one."""
    global _DEFAULT
    if _DEFAULT is None:
        # Each process builds its own default on first use; workers never
        # hand it back, they return results.
        _DEFAULT = ScheduleCache()  # repro-lint: disable=REP005 -- per-process cache
    return _DEFAULT
