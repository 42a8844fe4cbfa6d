"""Project lint rules (``repro lint``): the determinism & error discipline.

A reproduction lives or dies on determinism — the same spec must yield the
same schedule, byte for byte, on every machine — and on failing loudly
through :class:`~repro.core.errors.ReproError` rather than stripped-out
``assert`` statements.  This module enforces both statically, with nothing
but :mod:`ast`, as one pass over each module of the project model
(:mod:`repro.check.model`, which reads and parses every file once):

* **REP001 unseeded-rng** — a call that draws from process-global or OS
  randomness: any stdlib ``random.*`` function, ``random.Random()`` without
  a seed, ``random.SystemRandom``, a legacy ``np.random.*`` sampler, an
  unseeded ``default_rng()``/``SeedSequence()``/``PCG64()``, ``os.urandom``,
  ``uuid.uuid4`` or ``secrets.*``.  Library code must thread an explicit
  seed.
* **REP002 wall-clock** — a ``time.time``/``time_ns``/``perf_counter``/
  ``monotonic`` (and ``_ns``) read or ``from time import`` of one, or a
  ``datetime.now``/``utcnow``/``today`` / ``date.today`` call, outside
  ``repro/obs/``: timing is an observability concern and lives behind
  :mod:`repro.obs.spans`.
* **REP003 bare-assert** — ``assert`` in library code; ``python -O`` strips
  asserts, so invariants must raise :class:`~repro.core.errors.ReproError`.
* **REP004 unordered-iteration** — ``for`` loops over a set display, a
  ``set()``/``frozenset()`` call, a set comprehension, or a set-operator
  expression inside ``trees/``, ``hypercube/``, ``exec/``, ``abr/``, or
  ``obs/``, where iteration order can feed transmission emission (for
  ``abr/``, chunk-fetch order; for ``obs/``, merge/serialization order of
  telemetry snapshots).  Wrap the iterable in ``sorted()``.

REP001 and REP002 share one classifier (:func:`_source_reason`): a call is
judged by the dotted name its callee resolves to through the file's imports
— ``import x``, ``import x as y`` and ``from x import y`` alike, at module
level or inside a function — so ``from random import shuffle; shuffle(xs)``
is caught at the call exactly like ``random.shuffle(xs)``.

Scope is path-based: rules apply to files inside a ``repro`` package tree
and skip ``tests``/``benchmarks``/``examples``/``scripts`` directories.
Pragmas come in two scopes (``REPxxx`` standing for a real rule id):

* a pragma comment on a line of its own disables the listed rules for the
  whole file::

      # repro-lint: disable=REPxxx

* a trailing pragma on a line of code disables the listed rules for that
  line only — the form the analyzer passes (REP005+) expect for
  deliberately exempt single statements, always with a justifying comment::

      _STATE = payload  # worker-local by design  # repro-lint: disable=REP005

Both forms accept comma-separated rule ids and the token ``all``.  The
model parses them once per file (:class:`~repro.check.model.Suppressions`)
and :meth:`~repro.check.model.ProjectModel.unsuppressed` applies them to
every rule family.

``lint_paths`` returns the findings; the CLI renders them as text or JSON.
"""

from __future__ import annotations

import ast
import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.check.model import (
    LintViolation,
    ModuleInfo,
    ProjectModel,
    Suppressions,
    build_project_model,
    read_module,
)

__all__ = [
    "LINT_RULES",
    "LintViolation",
    "Suppressions",
    "lint_file",
    "lint_paths",
    "lint_source",
    "format_violations",
]

#: rule id -> one-line description (docs/CHECKS.md holds the full catalogue).
LINT_RULES: dict[str, str] = {
    "REP001": "unseeded RNG: a random.* / legacy np.random.* call, an "
    "unseeded default_rng()/SeedSequence()/random.Random(), or OS entropy "
    "(SystemRandom, os.urandom, uuid.uuid4, secrets.*)",
    "REP002": "wall-clock read (time.time/time_ns/perf_counter/monotonic, "
    "datetime.now/today) outside repro/obs/",
    "REP003": "bare assert in library code; raise ReproError instead",
    "REP004": "iteration over an unordered set expression where order can "
    "feed transmission emission or snapshot serialization (trees/, "
    "hypercube/, exec/, abr/, obs/)",
}

#: Directory names whose files are exempt from every rule.
_EXEMPT_DIRS = frozenset({"tests", "benchmarks", "examples", "scripts"})

#: Directories where REP004 (emission-order determinism) applies.
_ORDER_CRITICAL_DIRS = frozenset({"abr", "trees", "hypercube", "exec", "obs"})

#: Wall-clock functions of the ``time`` module.
_CLOCK_FNS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns"}
)

#: Wall-clock constructors on ``datetime.datetime`` / ``datetime.date``.
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: numpy RNG constructors that are deterministic once given a seed (as
#: opposed to the legacy np.random.<sampler>() calls on the global RNG).
_NUMPY_SEEDABLE = frozenset(
    {"default_rng", "Generator", "BitGenerator", "SeedSequence", "PCG64"}
)


def _scope_of(path: Path) -> tuple[bool, bool, bool]:
    """``(library, obs_exempt, order_critical)`` classification of a file."""
    parts = path.parts
    if any(part in _EXEMPT_DIRS for part in parts):
        return False, False, False
    obs_exempt = "obs" in parts
    order_critical = any(part in _ORDER_CRITICAL_DIRS for part in parts)
    return True, obs_exempt, order_critical


def _is_set_expression(node: ast.expr) -> bool:
    """True when ``node`` statically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _is_seeded(call: ast.Call) -> bool:
    """True when ``call`` passes a seed that is not the literal ``None``."""

    def given(expr: ast.expr) -> bool:
        return not (isinstance(expr, ast.Constant) and expr.value is None)

    if call.args:
        return given(call.args[0])
    return any(
        kw.arg in ("seed", "entropy") and given(kw.value) for kw in call.keywords
    )


def _source_reason(qualname: str, call: ast.Call) -> tuple[str, str] | None:
    """``(rule, message)`` when calling ``qualname`` reads nondeterminism.

    ``qualname`` is the callee's dotted name after import resolution
    (``numpy.random.default_rng``, ``random.shuffle``, ``time.time``).
    """
    module, _, leaf = qualname.rpartition(".")
    if module == "time" and leaf in _CLOCK_FNS:
        return "REP002", (
            f"time.{leaf}() outside repro/obs/; use repro.obs.spans "
            "(Timer/SpanTracer)"
        )
    owner = module.rpartition(".")[2]
    if leaf in _DATETIME_FNS and owner in ("datetime", "date"):
        return "REP002", (
            f"datetime wall-clock read ({owner}.{leaf}()) outside repro/obs/"
        )
    if module == "random" and leaf == "Random":
        if _is_seeded(call):
            return None
        return "REP001", (
            "random.Random() without a seed is non-reproducible; pass one "
            "explicitly"
        )
    if qualname in ("random.SystemRandom", "os.urandom", "uuid.uuid4") or (
        module == "secrets"
    ):
        return "REP001", (
            f"{qualname}() draws OS entropy; derive the value from the "
            "spec's seed"
        )
    if module == "random":
        return "REP001", (
            f"module-level random.{leaf}() uses process-global RNG state; "
            "seed an explicit random.Random(seed)"
        )
    if module == "numpy.random":
        if leaf not in _NUMPY_SEEDABLE:
            return "REP001", (
                f"legacy np.random.{leaf}() uses the global numpy RNG; use "
                "np.random.default_rng(seed)"
            )
        if not _is_seeded(call):
            return "REP001", (
                f"np.random.{leaf}() without a seed is non-reproducible; "
                "pass one explicitly"
            )
    return None


class _Visitor(ast.NodeVisitor):
    """Single-pass rule evaluation over one module's AST."""

    def __init__(self, path: str, *, obs_exempt: bool, order_critical: bool) -> None:
        self.path = path
        self.obs_exempt = obs_exempt
        self.order_critical = order_critical
        self.violations: list[LintViolation] = []
        #: local name -> the dotted name it imports, from every aliased or
        #: ``from`` import seen so far (module level and function-local
        #: alike); a plain ``import x`` binds ``x`` to its own name.
        self._imports: dict[str, str] = {}

    def _note(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            LintViolation(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # ------------------------------------------------------------- imports
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self._imports[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # Relative imports keep their leading dots, so they never resolve
        # to a stdlib or numpy name.
        module = "." * node.level + (node.module or "")
        for alias in node.names:
            if alias.name != "*":
                self._imports[alias.asname or alias.name] = f"{module}.{alias.name}"
            if module == "time" and alias.name in _CLOCK_FNS and not self.obs_exempt:
                self._note(
                    "REP002", node,
                    f"importing time.{alias.name}; wall-clock reads belong "
                    "in repro/obs/",
                )
        self.generic_visit(node)

    # --------------------------------------------------------------- calls
    def _qualname(self, func: ast.expr) -> str | None:
        """The callee's dotted name, its root resolved through imports."""
        parts: list[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        parts.append(self._imports.get(func.id, func.id))
        return ".".join(reversed(parts))

    def visit_Call(self, node: ast.Call) -> None:
        qualname = self._qualname(node.func)
        reason = None if qualname is None else _source_reason(qualname, node)
        if reason is not None and not (reason[0] == "REP002" and self.obs_exempt):
            self._note(reason[0], node, reason[1])
        self.generic_visit(node)

    # ----------------------------------------------------------- statements
    def visit_Assert(self, node: ast.Assert) -> None:
        self._note(
            "REP003", node,
            "bare assert is stripped under python -O; raise ReproError "
            "(or a subclass) with a message",
        )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_loop_order(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:  # pragma: no cover
        self._check_loop_order(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_loop_order(node.iter)
        self.generic_visit(node)

    def _check_loop_order(self, iterable: ast.expr) -> None:
        if self.order_critical and _is_set_expression(iterable):
            self._note(
                "REP004", iterable,
                "iterating an unordered set expression in emission-order "
                "critical code; wrap it in sorted()",
            )


def _check_module(info: ModuleInfo) -> list[LintViolation]:
    """REP001–REP004 findings for one module, before pragmas."""
    library, obs_exempt, order_critical = _scope_of(Path(info.path))
    if not library:
        return []
    visitor = _Visitor(
        info.path, obs_exempt=obs_exempt, order_critical=order_critical
    )
    visitor.visit(info.tree)
    return visitor.violations


def run_lint_rules(
    model: ProjectModel, rules: frozenset[str] | None = None
) -> list[LintViolation]:
    """Run REP001–REP004 over every file of ``model``.

    Args:
        model: the project model (its files' trees and pragmas).
        rules: restrict to these rule ids (None = all four).

    Findings come back pragma-filtered, file by file.
    """
    if rules is not None and rules.isdisjoint(LINT_RULES):
        return []
    return model.unsuppressed(
        violation
        for info in model
        for violation in _check_module(info)
        if rules is None or violation.rule in rules
    )


def lint_source(source: str, path: str | Path) -> list[LintViolation]:
    """Lint one module's source text (``path`` scopes the rules and is reported)."""
    indexed = read_module(str(path), source)
    if isinstance(indexed, LintViolation):
        return [indexed]
    return run_lint_rules(ProjectModel([indexed]))


def lint_paths(paths: Sequence[str | Path]) -> list[LintViolation]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Files that cannot be read or parsed are ``REP000`` findings.  Findings
    come back sorted by ``(path, line, col, rule)`` so output is
    deterministic across filesystems.
    """
    model = build_project_model(paths)
    return sorted(
        [*model.errors, *run_lint_rules(model)],
        key=lambda v: (v.path, v.line, v.col, v.rule),
    )


def lint_file(path: str | Path) -> list[LintViolation]:
    """Lint one ``.py`` file from disk."""
    return lint_paths([path])


def format_violations(
    violations: Iterable[LintViolation], *, format: str = "text"
) -> str:
    """Render findings as ``text`` (one per line) or ``json``."""
    items = list(violations)
    if format == "json":
        return json.dumps([v.to_dict() for v in items], indent=2)
    if format != "text":
        raise ValueError(f"unknown format {format!r}; choose text or json")
    if not items:
        return "OK: no lint violations"
    lines = [str(v) for v in items]
    lines.append(f"{len(items)} violation{'s' if len(items) != 1 else ''} found")
    return "\n".join(lines)
