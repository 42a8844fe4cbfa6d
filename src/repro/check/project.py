"""Project-wide lint orchestration: one model, every rule, one gate.

This is the engine behind ``repro lint``.  One call to
:func:`lint_project`:

1. builds the whole-project model (:mod:`repro.check.model`) — the one
   reader, which parses each file once and turns a file it cannot read or
   parse into a ``REP000`` finding;
2. runs the per-file rules (REP001–REP004, :mod:`repro.check.lint`) over
   each module's tree and the analyzer passes (REP005–REP007,
   :mod:`repro.check.analyzers`) over the model, both filtered by the
   model's pragma table.

Every finding that survives the pragmas fails the gate: a deliberate
exemption is an inline ``# repro-lint: disable=`` pragma with a justifying
comment at the line it exempts, and there is no other escape hatch.

Timings come from :class:`repro.obs.spans.Timer` (the sanctioned clock)
and are reported with the findings (``repro lint --format json``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.check.analyzers import ANALYZER_RULES, run_analyzers
from repro.check.lint import LINT_RULES, run_lint_rules
from repro.check.model import LintViolation, build_project_model
from repro.core.errors import ReproError
from repro.obs.spans import Timer

__all__ = [
    "ALL_RULES",
    "ProjectLintReport",
    "lint_project",
]

#: Every rule ``repro lint`` knows: per-file rules + analyzer passes.
ALL_RULES: dict[str, str] = {**LINT_RULES, **ANALYZER_RULES}


@dataclass(slots=True)
class ProjectLintReport:
    """Outcome of one :func:`lint_project` run."""

    violations: list[LintViolation]
    files_scanned: int
    model_build_s: float
    analyze_s: float
    #: exact counts per rule (zero-count rules omitted).
    per_rule: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.per_rule = dict(
            sorted(Counter(v.rule for v in self.violations).items())
        )

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "per_rule": self.per_rule,
            "files_scanned": self.files_scanned,
            "model_build_s": self.model_build_s,
            "analyze_s": self.analyze_s,
        }


def lint_project(
    paths: Sequence[str | Path] = ("src",),
    *,
    rules: Iterable[str] | None = None,
) -> ProjectLintReport:
    """Run every lint rule over ``paths``.

    Args:
        paths: files/directories to scan.
        rules: restrict to these rule ids (default: all of
            :data:`ALL_RULES`); unknown ids raise :class:`ReproError`.
            ``REP000`` (a file that cannot be read or parsed) is reported
            under any selection.
    """
    selected: frozenset[str] | None = None
    if rules is not None:
        selected = frozenset(r.upper() for r in rules)
        unknown = selected - ALL_RULES.keys()
        if unknown:
            raise ReproError(
                f"unknown lint rule(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(ALL_RULES))}"
            )

    with Timer() as build_timer:
        model = build_project_model(paths)
    with Timer() as analyze_timer:
        violations = [
            *model.errors,
            *run_lint_rules(model, selected),
            *run_analyzers(model, selected),
        ]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    return ProjectLintReport(
        violations=violations,
        files_scanned=len(model) + len(model.errors),
        model_build_s=build_timer.elapsed,
        analyze_s=analyze_timer.elapsed,
    )
