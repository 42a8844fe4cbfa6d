"""REP007 — attribute mutation of frozen spec dataclasses.

``ExperimentSpec``/``SessionSpec``/``FleetSpec``/``ControlDecision`` and
friends are ``@dataclass(frozen=True)`` on purpose: specs are hashable
cache keys and cross-process payloads, and a mutated spec invalidates
both.  Python enforces frozenness at runtime with an exception — but
``object.__setattr__`` bypasses it silently, and that bypass is the
sanctioned idiom *only* inside the owning class's own constructor
(``__post_init__``/``__init__``), where derived fields are normalized.

This pass flags, project-wide:

1. ``object.__setattr__(obj, ...)`` anywhere outside a constructor of a
   frozen dataclass defined in the same module — the only place the
   escape hatch is legitimate;
2. ``self.<attr> = ...`` inside a non-constructor method of a frozen
   dataclass (would raise at runtime; flagged statically so tests need
   not reach the line);
3. ``x.<attr> = ...`` where ``x`` was bound earlier in the same function
   to a direct construction of a class the model knows to be a frozen
   dataclass (including classes imported via ``from X import Spec``).

Aliasing the model cannot see (specs passed through containers or
returned from helpers) is out of scope — the runtime exception still
backstops those.
"""

from __future__ import annotations

import ast

from repro.check.model import LintViolation, ModuleInfo, ProjectModel

__all__ = ["RULE", "DESCRIPTION", "analyze"]

RULE = "REP007"
DESCRIPTION = (
    "attribute assignment to a frozen spec dataclass outside its "
    "constructor (object.__setattr__ escape or direct set)"
)

_CONSTRUCTORS = frozenset({"__init__", "__post_init__"})


def _frozen_class_names(model: ProjectModel, module: ModuleInfo) -> set[str]:
    """Local names in ``module`` that refer to frozen dataclasses."""
    frozen: set[str] = {
        name for name, cls in module.classes.items() if cls.frozen_dataclass
    }
    for local, (source, original) in module.from_imports.items():
        target = model.get(source)
        if target is None:
            continue
        cls = target.classes.get(original)
        if cls is not None and cls.frozen_dataclass:
            frozen.add(local)
    return frozen


def _is_object_setattr(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    )


def analyze(model: ProjectModel) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for module in model:
        frozen_names = _frozen_class_names(model, module)

        # Which functions are sanctioned constructors of a frozen class?
        sanctioned: set[str] = {
            f"{cls.name}.{method}"
            for cls in module.classes.values()
            if cls.frozen_dataclass
            for method in cls.methods
            if method in _CONSTRUCTORS
        }

        for fn in module.functions.values():
            is_constructor = fn.qualname in sanctioned
            owner = module.classes.get(fn.owner) if fn.owner else None
            in_frozen_class = owner is not None and owner.frozen_dataclass

            # Locals bound to a frozen-class construction in this function.
            frozen_locals: set[str] = set()
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in frozen_names
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            frozen_locals.add(target.id)

            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call) and _is_object_setattr(node):
                    if not is_constructor:
                        violations.append(LintViolation(
                            rule=RULE, path=module.path,
                            line=node.lineno, col=node.col_offset,
                            message=(
                                "object.__setattr__ outside a frozen "
                                "dataclass constructor "
                                f"(in '{fn.qualname}'); construct a new "
                                "spec instead of mutating"
                            ),
                        ))
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                        ):
                            continue
                        base = target.value.id
                        if (
                            base == "self"
                            and in_frozen_class
                            and not is_constructor
                        ):
                            violations.append(LintViolation(
                                rule=RULE, path=module.path,
                                line=node.lineno, col=node.col_offset,
                                message=(
                                    f"'self.{target.attr} = ...' in frozen "
                                    f"dataclass method '{fn.qualname}' "
                                    "(would raise FrozenInstanceError)"
                                ),
                            ))
                        elif base in frozen_locals:
                            violations.append(LintViolation(
                                rule=RULE, path=module.path,
                                line=node.lineno, col=node.col_offset,
                                message=(
                                    f"'{base}.{target.attr} = ...' mutates "
                                    "a frozen spec instance constructed in "
                                    f"'{fn.qualname}'; use dataclasses."
                                    "replace() to derive a new one"
                                ),
                            ))
    return violations
