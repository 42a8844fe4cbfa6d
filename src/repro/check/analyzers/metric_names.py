"""REP006 — metric/event-name drift against the declared registry.

Dashboards, docs, and SLO monitors key on metric and event names as plain
strings: an emitter that says ``fleet.session`` where the dashboard reads
``fleet.sessions`` fails silently, forever.  :mod:`repro.obs.names` is the
single source of truth for every counter/gauge/histogram name and
:data:`repro.obs.events.EVENT_SCHEMA` for every tracer event; this pass
cross-checks each emission site in the project against them.

An emission site is a call of one of the registry methods
(``.counter`` / ``.gauge`` / ``.histogram``) or an event
emitter (``.emit`` / ``._emit``) whose name argument the model can resolve
to a string — literals, module-level constants, ``from X import NAME``
bindings, and ``mod.NAME`` reads all resolve.  Names the resolver cannot
evaluate (computed f-strings, names built in loops) are skipped rather
than guessed; the engine's local ``emit()`` closure is likewise out of
scope.  Both registries are read **statically from the model** when the
declaring modules are in the scanned paths (so CI catches a scratch copy
whose registry diverged), falling back to importing them at analysis time.
"""

from __future__ import annotations

import ast

from repro.check.model import LintViolation, ModuleInfo, ProjectModel

__all__ = [
    "RULE",
    "DESCRIPTION",
    "analyze",
    "declared_event_names",
    "declared_metric_names",
    "emitted_names",
    "unused_metric_names",
]

RULE = "REP006"
DESCRIPTION = (
    "metric/event name emitted that is not declared in the obs name "
    "registry (repro.obs.names / EVENT_SCHEMA)"
)

_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})
#: Time-series emitters are also name-first.  ``.observe(value)`` on a
#: histogram handle never resolves (float arg) so it self-excludes;
#: ``.count`` additionally requires >= 2 positional args so that
#: ``some_str.count(sub)`` can never match.
_SERIES_METHODS = frozenset({"observe", "count"})
_EVENT_METHODS = frozenset({"emit", "_emit"})

_NAMES_MODULE = "repro.obs.names"
_EVENTS_MODULE = "repro.obs.events"


def _name_argument(call: ast.Call) -> ast.expr | None:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == "name":
            return kw.value
    return None


def declared_metric_names(model: ProjectModel) -> frozenset[str] | None:
    """Every name declared in :mod:`repro.obs.names`.

    Extracted statically from the model when the module is in the scanned
    paths (every ``MetricSpec(...)`` construction's ``name``), otherwise by
    importing the installed registry.  None when neither works — the pass
    then skips metric checks instead of flagging everything.
    """
    names_module = model.get(_NAMES_MODULE)
    if names_module is not None:
        declared: set[str] = set()
        for node in ast.walk(names_module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "MetricSpec"
            ):
                arg = _name_argument(node)
                if arg is not None:
                    value = model.resolve_str_constant(names_module, arg)
                    if value is not None:
                        declared.add(value)
        return frozenset(declared)
    try:
        from repro.obs.names import METRIC_NAMES
    except ImportError:
        return None
    return frozenset(METRIC_NAMES)


def declared_event_names(model: ProjectModel) -> frozenset[str] | None:
    """Every event name keyed in ``EVENT_SCHEMA`` (static, else imported)."""
    events_module = model.get(_EVENTS_MODULE)
    if events_module is not None:
        declared: set[str] = set()
        for node in ast.walk(events_module.tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EVENT_SCHEMA"
                for t in node.targets
            ):
                if isinstance(node.value, ast.Dict):
                    for key in node.value.keys:
                        if key is None:
                            continue
                        value = model.resolve_str_constant(events_module, key)
                        if value is not None:
                            declared.add(value)
        if declared:
            return frozenset(declared)
    try:
        from repro.obs.events import EVENT_SCHEMA
    except ImportError:
        return None
    return frozenset(EVENT_SCHEMA)


def emitted_names(
    model: ProjectModel,
) -> list[tuple[ModuleInfo, ast.Call, str, str]]:
    """Every resolvable emission site: ``(module, call, kind, name)``.

    ``kind`` is the method used (``counter``/``gauge``/.../``emit``).
    Sites whose name argument cannot be statically resolved are omitted.
    """
    sites: list[tuple[ModuleInfo, ast.Call, str, str]] = []
    for module in model:
        if module.name in (_NAMES_MODULE, _EVENTS_MODULE):
            continue  # the registries themselves are declarations
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in (
                _METRIC_METHODS | _SERIES_METHODS | _EVENT_METHODS
            ):
                continue
            if func.attr == "count" and len(node.args) < 2:
                continue
            arg = _name_argument(node)
            if arg is None:
                continue
            value = model.resolve_str_constant(module, arg)
            if value is not None:
                sites.append((module, node, func.attr, value))
    return sites


def unused_metric_names(model: ProjectModel) -> frozenset[str]:
    """Registry names no resolvable emission site references (dead names)."""
    declared = declared_metric_names(model) or frozenset()
    emitted = {
        name for _, _, kind, name in emitted_names(model)
        if kind not in _EVENT_METHODS
    }
    return frozenset(declared - emitted)


def analyze(model: ProjectModel) -> list[LintViolation]:
    """Flag every emission whose resolved name is off-registry."""
    metrics = declared_metric_names(model)
    events = declared_event_names(model)
    violations: list[LintViolation] = []
    for module, call, kind, name in emitted_names(model):
        if kind not in _EVENT_METHODS:
            declared, registry = metrics, "repro.obs.names"
        else:
            declared, registry = events, "EVENT_SCHEMA (repro.obs.events)"
        if declared is None or name in declared:
            continue
        violations.append(
            LintViolation(
                rule=RULE, path=module.path,
                line=call.lineno, col=call.col_offset,
                message=(
                    f"{kind}() emits '{name}', which is not declared in "
                    f"{registry}; register it or fix the drifted name"
                ),
            )
        )
    return violations
