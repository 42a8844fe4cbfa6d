"""REP005 — writes to module-level shared state.

:class:`~repro.exec.executor.SweepExecutor` ships task functions into a
``ProcessPoolExecutor``.  Under ``fork`` every worker inherits a copy of
module globals; under ``spawn`` they are re-imported.  Either way, a
function that runs in a worker and *writes* module-level state is a latent
race/correctness bug: the write silently diverges per process, never
reaches the parent, and — in threaded fallbacks — can genuinely race.
Results must flow back through return values and registry snapshots, not
through globals.

Worker code reaches methods (``BatchMetrics.rows`` under
``replay_batch_task``), registry objects (``Histogram.observe_many`` under
``fleet_unit_task``) and function-local imports, none of which a static
call graph follows.  So the pass checks **every** module-level function
and method, and flags: writes to declared ``global`` names;
attribute/subscript assignment through a module-level binding; and
mutating method calls (``append``/``update``/``clear``/...) on
module-level *container* bindings.

Deliberate per-process state — the executor's payload slot, worker-local
span buffers, thread-local registry swaps, lazily built process-wide
caches and memos — is exempted at the write site with a line pragma and a
justifying comment, never silently.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.model import FunctionInfo, LintViolation, ModuleInfo, ProjectModel

__all__ = ["RULE", "DESCRIPTION", "analyze"]

RULE = "REP005"
DESCRIPTION = (
    "write to module/class-level shared state, which is private to each "
    "process-pool worker"
)

#: In-place mutators on the builtin containers (list/dict/set/deque).
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "clear", "pop",
     "popitem", "setdefault", "remove", "discard", "sort", "reverse",
     "appendleft", "extendleft"}
)


def _binding_names(target: ast.expr) -> Iterator[str]:
    """Names a target expression *binds* — ``x.attr = v`` binds nothing."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _binding_names(element)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _local_bindings(fn_node: ast.AST) -> set[str]:
    """Names bound locally inside the function (params, assigns, targets)."""
    local: set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *filter(None, (args.vararg, args.kwarg)),
            ):
                local.add(arg.arg)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                local.update(_binding_names(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            local.update(_binding_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            local.update(_binding_names(node.optional_vars))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            local.add(node.name)
        elif isinstance(node, ast.comprehension):
            local.update(_binding_names(node.target))
    return local


def _root_name(expr: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _shared_writes(module: ModuleInfo, fn: FunctionInfo) -> list[LintViolation]:
    node = fn.node
    declared_global: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            declared_global.update(sub.names)
    local = _local_bindings(node) - declared_global
    module_level = module.bindings

    def note(target: ast.AST, message: str) -> LintViolation:
        return LintViolation(
            rule=RULE, path=module.path,
            line=getattr(target, "lineno", fn.lineno),
            col=getattr(target, "col_offset", 0),
            message=f"{message} in '{fn.qualname}' (module state is private "
            "to each pool worker); ship results via return values / "
            "registry snapshots",
        )

    violations: list[LintViolation] = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        violations.append(note(
                            sub, f"assignment to module global '{target.id}'"
                        ))
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if (
                        root is not None
                        and root not in local
                        and root in module_level
                    ):
                        violations.append(note(
                            sub,
                            f"mutation of module-level object '{root}' "
                            "(attribute/subscript assignment)",
                        ))
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id not in local
                and func.value.id in module.mutable_bindings
            ):
                violations.append(note(
                    sub,
                    f"mutating call '{func.value.id}.{func.attr}()' on a "
                    "module-level container",
                ))
    return violations


def analyze(model: ProjectModel) -> list[LintViolation]:
    """Flag shared-state writes in every function and method of the model."""
    return [
        violation
        for module in model
        for fn in module.functions.values()
        for violation in _shared_writes(module, fn)
    ]
