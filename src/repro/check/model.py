"""The project model: the one reader behind ``repro lint``.

:func:`build_project_model` walks the given paths, reads and parses every
``.py`` file once, and indexes it into a shared :class:`ProjectModel` that
every rule runs against — the per-file rules (:mod:`repro.check.lint`)
walk each module's tree, and the analyzer passes
(:mod:`repro.check.analyzers`) use the project-wide facts:

* a parsed AST per module, with the module's **symbol table**: module-level
  bindings, string constants, mutable-container bindings, classes (with
  frozen-dataclass detection), and functions (methods keyed by qualname);
* the **import graph**: per module, ``import X as y`` aliases and
  ``from X import a as b`` bindings, resolvable across the project
  (including re-export chains through ``__init__`` modules) by the
  module-alias and string-constant resolvers the metric-name pass uses;
* the file's ``# repro-lint: disable=`` pragmas (:class:`Suppressions`),
  applied to every rule's findings by :meth:`ProjectModel.unsuppressed`.

A file that cannot be read, is not UTF-8, or does not parse becomes a
``REP000`` :class:`LintViolation` in :attr:`ProjectModel.errors` instead of
a module, so it is reported under any rule selection.

Everything here is stdlib-only (:mod:`ast`) and engine-free, like the
rest of ``repro/check/``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "LintViolation",
    "ModuleInfo",
    "ProjectModel",
    "Suppressions",
    "build_project_model",
    "module_name_for",
    "read_module",
]

#: Module-level bindings of these shapes are "mutable containers" for the
#: shared-state pass: list/dict/set displays and the builtin container
#: constructors (plus the usual collections ones).
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
     "OrderedDict"}
)

_PRAGMA = re.compile(
    r"#[ \t]*repro-lint:[ \t]*disable=([A-Za-z0-9_,\t ]+)", re.IGNORECASE
)

#: Token standing for "every rule" inside a :class:`Suppressions` table.
ALL_RULES_TOKEN = "*"


@dataclass(frozen=True, slots=True)
class LintViolation:
    """One lint finding, anchored to a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True, slots=True)
class Suppressions:
    """Parsed ``# repro-lint: disable=`` pragmas for one file.

    A pragma on a line of its own (nothing but whitespace/comment before
    it) applies to the whole file; a trailing pragma on a line of code
    applies to that line only.  The token ``all`` expands to
    :data:`ALL_RULES_TOKEN` and matches every rule id, present and future.
    """

    file_rules: frozenset[str] = frozenset()
    line_rules: tuple[tuple[int, frozenset[str]], ...] = ()

    @classmethod
    def empty(cls) -> "Suppressions":
        return cls()

    @classmethod
    def from_source(cls, source: str) -> "Suppressions":
        file_rules: set[str] = set()
        line_rules: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            rules = {
                ALL_RULES_TOKEN if token.strip().upper() == "ALL"
                else token.strip().upper()
                for token in match.group(1).split(",")
                if token.strip()
            }
            comment_start = line.find("#")
            prefix = line[:comment_start].strip() if comment_start >= 0 else ""
            if prefix:
                line_rules.setdefault(lineno, set()).update(rules)
            else:
                file_rules.update(rules)
        return cls(
            file_rules=frozenset(file_rules),
            line_rules=tuple(
                (lineno, frozenset(rules))
                for lineno, rules in sorted(line_rules.items())
            ),
        )

    def is_disabled(self, rule: str, line: int) -> bool:
        if rule in self.file_rules or ALL_RULES_TOKEN in self.file_rules:
            return True
        for lineno, rules in self.line_rules:
            if lineno == line and (rule in rules or ALL_RULES_TOKEN in rules):
                return True
        return False


@dataclass(frozen=True, slots=True)
class FunctionInfo:
    """One module-level function or method (nested defs stay inside it)."""

    qualname: str  # "f" for functions, "Class.f" for methods
    name: str
    owner: str | None  # owning class name, None for plain functions
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)


@dataclass(frozen=True, slots=True)
class ClassInfo:
    """One module-level class."""

    name: str
    lineno: int
    frozen_dataclass: bool
    methods: tuple[str, ...]
    node: ast.ClassDef = field(repr=False)


@dataclass(slots=True)
class ModuleInfo:
    """Everything the analyzers need to know about one module."""

    name: str  # dotted ("repro.exec.executor")
    path: str  # as given to the builder (reported in findings)
    tree: ast.Module = field(repr=False)
    #: ``import X as y`` -> {"y": "X"}; ``from P import M`` where ``P.M`` is
    #: a project module also lands here ({"M": "P.M"}).
    imports: dict[str, str] = field(default_factory=dict)
    #: ``from X import a as b`` -> {"b": ("X", "a")}.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level ``NAME = "literal"`` string constants.
    constants: dict[str, str] = field(default_factory=dict)
    #: Every module-level bound name (functions, classes, imports, assigns).
    bindings: set[str] = field(default_factory=set)
    #: Module-level names bound to mutable container displays/constructors.
    mutable_bindings: set[str] = field(default_factory=set)
    #: Parsed ``# repro-lint: disable=`` pragmas (file- and line-level).
    suppressions: Suppressions = field(default_factory=Suppressions.empty)


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, anchored at the last ``repro`` dir.

    ``a/b/src/repro/exec/executor.py`` -> ``repro.exec.executor``; trees
    without a ``repro`` anchor (test fixtures) fall back to the file stem
    chain below the last ``src``/root component.
    """
    parts = list(path.parts)
    stem_parts = parts[:-1] + [path.stem]
    anchor = -1
    for index, part in enumerate(stem_parts):
        if part == "repro":
            anchor = index
    if anchor < 0:
        for index, part in enumerate(stem_parts):
            if part == "src":
                anchor = index + 1
        if anchor < 0 or anchor >= len(stem_parts):
            anchor = max(0, len(stem_parts) - 2)
    dotted = ".".join(stem_parts[anchor:])
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "dataclass":
            continue
        for kw in decorator.keywords:
            if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                if kw.value.value is True:
                    return True
    return False


def _is_mutable_binding(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


def _index_module(name: str, path: str, source: str) -> ModuleInfo:
    """Parse one module and extract its symbol table."""
    tree = ast.parse(source, filename=path)
    info = ModuleInfo(
        name=name, path=path, tree=tree,
        suppressions=Suppressions.from_source(source),
    )

    def bind_target(target: ast.expr, value: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            info.bindings.add(target.id)
            if value is not None:
                if _is_mutable_binding(value):
                    info.mutable_bindings.add(target.id)
                if (isinstance(value, ast.Constant)
                        and isinstance(value.value, str)):
                    info.constants[target.id] = value.value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind_target(element, None)

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
                info.bindings.add(local)
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                # Relative imports are rare in this tree; skip resolution.
                for alias in stmt.names:
                    info.bindings.add(alias.asname or alias.name)
                continue
            for alias in stmt.names:
                local = alias.asname or alias.name
                info.from_imports[local] = (stmt.module, alias.name)
                info.bindings.add(local)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = FunctionInfo(
                qualname=stmt.name, name=stmt.name, owner=None,
                lineno=stmt.lineno, node=stmt,
            )
            info.bindings.add(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            methods = []
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    qualname = f"{stmt.name}.{item.name}"
                    info.functions[qualname] = FunctionInfo(
                        qualname=qualname, name=item.name, owner=stmt.name,
                        lineno=item.lineno, node=item,
                    )
            info.classes[stmt.name] = ClassInfo(
                name=stmt.name, lineno=stmt.lineno,
                frozen_dataclass=_is_frozen_dataclass(stmt),
                methods=tuple(methods), node=stmt,
            )
            info.bindings.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                bind_target(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            bind_target(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            bind_target(stmt.target, None)
    return info


def read_module(path: str, source: str | bytes) -> ModuleInfo | LintViolation:
    """Index one file's source, or report why it cannot be: ``REP000``.

    ``source`` as bytes must be UTF-8.  This is the one-module indexer
    behind :func:`build_project_model` and ``lint_source``.
    """
    try:
        text = source.decode("utf-8") if isinstance(source, bytes) else source
    except UnicodeDecodeError as exc:
        return LintViolation(
            "REP000", path, 0, 0,
            f"file is not UTF-8: {exc.reason} at byte {exc.start}",
        )
    try:
        return _index_module(module_name_for(Path(path)), path, text)
    except SyntaxError as exc:
        return LintViolation(
            "REP000", path, exc.lineno or 0, exc.offset or 0,
            f"file does not parse: {exc.msg}",
        )
    except ValueError as exc:  # null bytes, on Python 3.10
        return LintViolation("REP000", path, 0, 0, f"file does not parse: {exc}")


class ProjectModel:
    """Every indexed file and the REP000 findings of the rest, with resolvers."""

    def __init__(
        self, files: Sequence[ModuleInfo], errors: Sequence[LintViolation] = ()
    ) -> None:
        #: dotted name -> module for name resolution; when two walked files
        #: share a name, the later one wins.
        self.modules = {info.name: info for info in files}
        #: every indexed file, sorted by (name, path).
        self.files = sorted(files, key=lambda info: (info.name, info.path))
        #: ``REP000`` findings for walked files that could not be indexed.
        self.errors = list(errors)

    # ------------------------------------------------------------- iteration
    def __iter__(self) -> Iterator[ModuleInfo]:
        """Every indexed file, including those whose name another shares."""
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

    def get(self, dotted: str) -> ModuleInfo | None:
        return self.modules.get(dotted)

    def unsuppressed(
        self, violations: Iterable[LintViolation]
    ) -> list[LintViolation]:
        """Drop the findings a pragma in their file disables."""
        by_path = {info.path: info.suppressions for info in self.files}
        return [
            v for v in violations
            if v.path not in by_path
            or not by_path[v.path].is_disabled(v.rule, v.line)
        ]

    # -------------------------------------------------------------- resolvers
    def resolve_module_alias(
        self, module: ModuleInfo, name: str
    ) -> ModuleInfo | None:
        """The project module a local name refers to, if it names one."""
        dotted = module.imports.get(name)
        if dotted is not None:
            return self.modules.get(dotted)
        origin = module.from_imports.get(name)
        if origin is not None:
            source_module, original = origin
            return self.modules.get(f"{source_module}.{original}")
        return None

    def resolve_str_constant(
        self, module: ModuleInfo, expr: ast.expr, *, _depth: int = 0
    ) -> str | None:
        """Statically evaluate ``expr`` to a string, if possible.

        Handles literals, module-level constants, ``from X import NAME``
        bindings, and ``mod.NAME`` attribute reads on imported project
        modules — the shapes metric/event emitters actually use.
        """
        if _depth > 8:
            return None
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.id in module.constants:
                return module.constants[expr.id]
            origin = module.from_imports.get(expr.id)
            if origin is not None:
                source_module, original = origin
                target = self.modules.get(source_module)
                if target is not None:
                    return self.resolve_str_constant(
                        target, ast.Name(id=original), _depth=_depth + 1
                    )
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            target = self.resolve_module_alias(module, expr.value.id)
            if target is not None:
                return self.resolve_str_constant(
                    target, ast.Name(id=expr.attr), _depth=_depth + 1
                )
        return None


# ----------------------------------------------------------------- building
def _iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def build_project_model(paths: Sequence[str | Path] = ("src",)) -> ProjectModel:
    """Read and index every ``.py`` file under ``paths`` once.

    Args:
        paths: files or directories (directories recurse, sorted).

    A file that cannot be read or indexed lands in
    :attr:`ProjectModel.errors` as a ``REP000`` finding.
    """
    files: list[ModuleInfo] = []
    errors: list[LintViolation] = []
    for file in _iter_python_files(paths):
        key = str(file)
        try:
            raw = file.read_bytes()
        except OSError as exc:
            errors.append(LintViolation(
                "REP000", key, 0, 0, f"file cannot be read: {exc.strerror or exc}"
            ))
            continue
        indexed = read_module(key, raw)
        if isinstance(indexed, LintViolation):
            errors.append(indexed)
        else:
            files.append(indexed)
    return ProjectModel(files, errors)
