"""REP005 — shared-state mutation reachable from process-pool workers.

:class:`~repro.exec.executor.SweepExecutor` ships task functions into a
``ProcessPoolExecutor``.  Under ``fork`` every worker inherits a copy of
module globals; under ``spawn`` they are re-imported.  Either way, a
worker-reachable function that *writes* module-level state is a latent
race/correctness bug: the write silently diverges per process, never
reaches the parent, and — in threaded fallbacks — can genuinely race.
Results must flow back through return values and registry snapshots, not
through globals.

The pass works in three steps over the project model:

1. **Roots.**  A function is *worker-shipped* when it is the first
   positional argument of an ``<executor>.map(fn, ...)`` call whose
   receiver was bound (assignment or ``with`` item) to a
   ``SweepExecutor(...)`` / ``ProcessPoolExecutor(...)`` construction in
   the same enclosing function; when it is the ``initializer=`` of a
   ``ProcessPoolExecutor``; or when it is wrapped in ``partial(fn, ...)``
   inside a module that instantiates ``ProcessPoolExecutor`` (the
   executor's own task-wrapping idiom).  Indirection the resolver cannot
   see (callables stored in containers, methods) is out of scope.
2. **Closure.**  Reachability is the transitive closure of resolvable
   calls (same-module names, ``from X import f`` bindings, and
   ``module.f`` attribute calls on imported project modules).
3. **Writes.**  Inside every reachable function the pass flags: writes to
   declared ``global`` names; attribute/subscript assignment through a
   module-level binding; and mutating method calls (``append``/``update``/
   ``clear``/...) on module-level *container* bindings.

Deliberate per-process state — initializer-installed payload slots,
worker-local span buffers, thread-local registry swaps — is exempted at
the write site with a line pragma and a justifying comment, never
silently.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.model import FunctionInfo, LintViolation, ModuleInfo, ProjectModel

__all__ = ["RULE", "DESCRIPTION", "analyze", "worker_roots"]

RULE = "REP005"
DESCRIPTION = (
    "write to module/class-level shared state from a function reachable "
    "from a process-pool worker entry point"
)

#: Executor classes whose ``.map``/``initializer=`` ship functions.
_POOL_CLASSES = frozenset({"SweepExecutor", "ProcessPoolExecutor"})

#: In-place mutators on the builtin containers (list/dict/set/deque).
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "clear", "pop",
     "popitem", "setdefault", "remove", "discard", "sort", "reverse",
     "appendleft", "extendleft"}
)


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _pool_bound_names(fn_node: ast.AST) -> set[str]:
    """Local names bound to a pool-class construction inside ``fn_node``."""
    bound: set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _callee_name(node.value.func) in _POOL_CLASSES:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
        elif isinstance(node, ast.withitem):
            expr = node.context_expr
            if (
                isinstance(expr, ast.Call)
                and _callee_name(expr.func) in _POOL_CLASSES
                and isinstance(node.optional_vars, ast.Name)
            ):
                bound.add(node.optional_vars.id)
    return bound


def _partial_aliases(fn_node: ast.AST) -> dict[str, str]:
    """Local ``name = partial(f, ...)`` bindings -> referenced callable."""
    aliases: dict[str, str] = {}
    for node in ast.walk(fn_node):
        value: ast.expr | None = None
        target: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value, target = node.value, node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            value, target = node.value, node.target
        if (
            value is not None
            and isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and _callee_name(value.func) == "partial"
            and value.args
            and isinstance(value.args[0], ast.Name)
        ):
            aliases[target.id] = value.args[0].id
    return aliases


def worker_roots(model: ProjectModel) -> dict[tuple[str, str], str]:
    """Worker-shipped entry points: ``(module, qualname) -> how shipped``."""
    roots: dict[tuple[str, str], str] = {}

    def add_root(module: ModuleInfo, name: str, how: str) -> None:
        resolved = model.resolve_function(module, name)
        if resolved is None:
            return
        target_module, fn = resolved
        roots.setdefault((target_module.name, fn.qualname), how)

    for module in model:
        module_has_pool = any(
            isinstance(node, ast.Call)
            and _callee_name(node.func) == "ProcessPoolExecutor"
            for node in ast.walk(module.tree)
        )
        for fn in module.functions.values():
            pool_names = _pool_bound_names(fn.node)
            partials = _partial_aliases(fn.node)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                # <pool>.map(worker, ...)
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "map"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in pool_names
                    and node.args
                ):
                    first = node.args[0]
                    if isinstance(first, ast.Name):
                        add_root(
                            module, partials.get(first.id, first.id),
                            f"mapped in {module.name}:{fn.qualname}",
                        )
                # ProcessPoolExecutor(initializer=f)
                if _callee_name(func) == "ProcessPoolExecutor":
                    for kw in node.keywords:
                        if kw.arg == "initializer" and isinstance(
                            kw.value, ast.Name
                        ):
                            add_root(
                                module, kw.value.id,
                                f"pool initializer in {module.name}",
                            )
                # partial(f, ...) inside a pool-owning module: the
                # executor's own task-wrapping idiom ships the result.
                if (
                    module_has_pool
                    and _callee_name(func) == "partial"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                ):
                    add_root(
                        module, node.args[0].id,
                        f"partial-wrapped in {module.name}:{fn.qualname}",
                    )
    return roots


def _resolvable_callees(
    model: ProjectModel, module: ModuleInfo, fn: FunctionInfo
) -> set[tuple[str, str]]:
    """Callees of ``fn`` the resolver can pin to project functions."""
    callees: set[tuple[str, str]] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            resolved = model.resolve_function(module, func.id)
            if resolved is not None:
                callees.add((resolved[0].name, resolved[1].qualname))
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            target = model.resolve_module_alias(module, func.value.id)
            if target is not None:
                fn_info = target.functions.get(func.attr)
                if fn_info is not None and fn_info.owner is None:
                    callees.add((target.name, fn_info.qualname))
    return callees


def reachable_from_workers(
    model: ProjectModel,
) -> dict[tuple[str, str], str]:
    """Transitive closure of :func:`worker_roots` over resolvable calls.

    Maps ``(module, qualname)`` to the root's "how shipped" provenance so
    findings can say *why* a function is considered worker code.
    """
    roots = worker_roots(model)
    reached: dict[tuple[str, str], str] = dict(roots)
    frontier = list(roots)
    while frontier:
        module_name, qualname = frontier.pop()
        module = model.get(module_name)
        if module is None:
            continue
        fn = module.functions.get(qualname)
        if fn is None:
            continue
        how = reached[(module_name, qualname)]
        for callee in _resolvable_callees(model, module, fn):
            if callee not in reached:
                reached[callee] = how
                frontier.append(callee)
    return reached


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


def _shared_writes(
    module: ModuleInfo, fn: FunctionInfo, how: str
) -> list[LintViolation]:
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
            message=f"{message} in worker-reachable '{fn.qualname}' ({how}); "
            "ship results via return values / registry snapshots",
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
    """Flag shared-state writes in every worker-reachable function."""
    violations: list[LintViolation] = []
    for (module_name, qualname), how in sorted(
        reachable_from_workers(model).items()
    ):
        module = model.get(module_name)
        if module is None:
            continue
        fn = module.functions.get(qualname)
        if fn is None:
            continue
        violations.extend(_shared_writes(module, fn, how))
    return violations
