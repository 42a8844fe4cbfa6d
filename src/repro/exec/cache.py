"""Content-addressed cache for compiled schedules.

A compiled schedule is a pure function of its :class:`ScheduleKey` — scheme,
construction, population ``N``, degree ``d``, horizon ``D`` (slots), stream
mode, and link latency ``T_c`` — so identical keys across seeds, drop rates,
and churn variants of a sweep can share one lowering.  The cache is one
**in-process LRU** bounded by ``capacity`` entries; compiling is the only
other way to get a schedule.

Hit/miss traffic is counted on the :func:`~repro.obs.active_registry`
(``schedule_cache.hit{layer=memory}`` / ``schedule_cache.miss``) so sweeps
report their amortization through the normal metrics path.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ReproError
from repro.obs.registry import active_registry

__all__ = ["CACHE_VERSION", "ScheduleKey", "ScheduleCache", "default_cache"]

#: Bump when the compiled representation changes; it is part of every
#: token, so tokens of the old representation never name the new one.
CACHE_VERSION = 1


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


class ScheduleCache:
    """In-process LRU of compiled schedules keyed by :class:`ScheduleKey`.

    Args:
        capacity: max entries (least recently used evicted).
        disk: must be False.  The on-disk layer was removed in v11.0.0;
            ``disk=True`` raises :class:`~repro.core.errors.ReproError`.
    """

    def __init__(self, *, capacity: int = 32, disk: bool = False) -> None:
        if disk is not False:
            raise ReproError(
                "the on-disk schedule cache was removed in v11.0.0; "
                "ScheduleCache is in-process only (pass disk=False or omit it)"
            )
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._memory: OrderedDict[str, object] = OrderedDict()

    def get(self, key: ScheduleKey) -> Any:
        """Cached schedule for ``key`` or None."""
        token = key.token()
        if token not in self._memory:
            return None
        self._memory.move_to_end(token)
        active_registry().counter("schedule_cache.hit", layer="memory").inc()
        return self._memory[token]

    def put(self, key: ScheduleKey, schedule: Any) -> None:
        token = key.token()
        self._memory[token] = schedule
        self._memory.move_to_end(token)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

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
            provenance: optional dict; receives ``cache`` (``memory``/``miss``)
                and ``cache_token``.
        """
        schedule = self.get(key)
        outcome = "memory"
        if schedule is None:
            active_registry().counter("schedule_cache.miss").inc()
            schedule = builder()
            self.put(key, schedule)
            outcome = "miss"
        if provenance is not None:
            provenance["cache"] = outcome
            provenance["cache_token"] = key.token()
        return schedule

    def invalidate(self, key: ScheduleKey) -> bool:
        """Drop one entry; True if it was cached.

        The control plane's re-cache path: after a churn repair rewrites a
        session kind's forest, the kind's schedule token is invalidated and
        the next :meth:`get_or_compile` recompiles and re-caches it —
        exactly one token's work, the rest of the cache stays warm.  Counted
        as ``schedule_cache.invalidate`` on the active registry.
        """
        dropped = self._memory.pop(key.token(), None) is not None
        if dropped:
            active_registry().counter("schedule_cache.invalidate").inc()
        return dropped

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop every entry."""
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
