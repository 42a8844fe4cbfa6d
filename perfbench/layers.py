"""Per-layer self-time accounting by wrapping public entry points.

The traced run measures each pipeline layer from outside the program: it
replaces a layer's public function or method with a timing wrapper for the
duration of one run and restores the original afterwards.  Wrapped calls
nest (``FleetRunner.run`` calls ``SessionManager.admit_all``, which calls
``compile_schedule``), so every layer is charged its *self* time: its own
wall time minus the time of wrapped calls made inside it.  The self times of
all layers therefore partition the wall time of the outermost call.

A function is patched under every name a ``repro`` module binds it to
(``from repro.exec.batch import replay_batch`` copies the reference into the
importing module), so a call through any alias is timed.  A target that no
longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any

__all__ = ["LAYER_TARGETS", "LayerClock", "patch_function", "traced"]


#: ``(layer, "module:Class" or "module", attribute)`` for every wrapped
#: entry point.  Several targets may share one layer name.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("runner", "repro.service.runner:FleetRunner", "run"),
    ("spec.resolve", "repro.service.spec:FleetSpec", "resolve"),
    ("admission", "repro.service.admission:SessionManager", "admit_all"),
    ("admission", "repro.service.admission:SessionManager", "admit_chunk"),
    ("admission", "repro.service.admission:SessionManager", "finalize"),
    ("compile", "repro.exec.compiler", "compile_schedule"),
    ("executor", "repro.exec.executor:SweepExecutor", "map"),
    ("unit", "repro.service.runner", "fleet_unit_task"),
    ("abr.session", "repro.service.runner", "fleet_session_task"),
    ("batch.kernel", "repro.exec.batch", "replay_batch"),
    ("batch.mask", "repro.exec.batch", "bernoulli_masks"),
    ("slo.score", "repro.service.slo", "score_batch_sessions"),
    ("slo.aggregate", "repro.service.slo:FleetAggregator", "add_sessions"),
    ("slo.aggregate", "repro.service.slo:FleetAggregator", "add_decision"),
    ("slo.aggregate", "repro.service.slo:FleetAggregator", "report"),
    ("control.step", "repro.control.controllers:ControlPlane", "step"),
)

#: Layers whose call start times are kept (the control epoch clock).
_STAMPED = frozenset({"control.step"})


@dataclass
class LayerClock:
    """Self time, call count and (for stamped layers) call start times."""

    self_s: defaultdict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    calls: defaultdict[str, int] = field(default_factory=lambda: defaultdict(int))
    stamps: defaultdict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    _children: list[float] = field(default_factory=list)

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with its self time charged to ``layer``."""
        children = self._children
        self_s = self.self_s
        calls = self.calls
        stamps = self.stamps[layer] if layer in _STAMPED else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            children.append(0.0)
            start = clock()
            if stamps is not None:
                stamps.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - children.pop()
                calls[layer] += 1
                if children:
                    children[-1] += elapsed

        return timed

    def total_s(self) -> float:
        return sum(self.self_s.values())


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


@contextmanager
def patch_function(
    owner: str, name: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
) -> Iterator[bool]:
    """Replace ``owner.name`` by ``make(original)`` for the ``with`` body.

    Yields False (and patches nothing) when the target does not exist.
    Module-level functions are replaced under every ``repro`` alias;
    methods are replaced on their class.
    """
    try:
        holder = _resolve(owner)
    except (ImportError, AttributeError):
        yield False
        return
    if isinstance(holder, type):
        original = holder.__dict__.get(name)
        places = [holder] if original is not None else []
    else:
        original = getattr(holder, name, None)
        places = [
            module
            for module_name, module in list(sys.modules.items())
            if original is not None
            and (module_name == "repro" or module_name.startswith("repro."))
            and getattr(module, name, None) is original
        ]
    if not places:
        yield False
        return
    replacement = make(original)
    for place in places:
        setattr(place, name, replacement)
    try:
        yield True
    finally:
        for place in places:
            setattr(place, name, original)


@contextmanager
def traced(clock: LayerClock) -> Iterator[list[str]]:
    """Wrap every :data:`LAYER_TARGETS` entry into ``clock``.

    Yields the sorted names of layers with at least one missing target.
    """
    absent: set[str] = set()
    with ExitStack() as stack:
        for layer, owner, name in LAYER_TARGETS:
            patch = patch_function(owner, name, functools.partial(clock.wrap, layer))
            if not stack.enter_context(patch):
                absent.add(layer)
        yield sorted(absent)
