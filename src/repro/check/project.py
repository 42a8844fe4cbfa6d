"""Project-wide lint orchestration: one model, every rule, the baseline.

This is the engine behind ``repro lint``.  One call to
:func:`lint_project`:

1. builds (or loads from cache) the whole-project model
   (:mod:`repro.check.model`) — the one reader, which parses each file
   once and turns a file it cannot read or parse into a ``REP000``
   finding;
2. runs the per-file rules (REP001–REP004, :mod:`repro.check.lint`) over
   each module's tree and the analyzer passes (REP005–REP007,
   :mod:`repro.check.analyzers`) over the model, both filtered by the
   model's pragma table;
3. subtracts the committed **baseline** — grandfathered findings recorded
   in ``.repro-lint-baseline.json`` so a new rule can land strict without
   blocking on a same-day cleanup of every historical hit.

Baseline entries match on ``(rule, path, message)`` and deliberately *not*
on line numbers, so unrelated edits above a grandfathered finding don't
resurrect it.  The project's own policy is that deliberate exemptions get
an inline ``# repro-lint: disable=`` pragma with a justifying comment — the
baseline exists for rule rollouts and currently ships empty; CI fails on
any non-baselined finding.

Timings come from :class:`repro.obs.spans.Timer` (the sanctioned clock)
and are reported with the findings (``repro lint --format json``).
"""

from __future__ import annotations

import json
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
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_PATH",
    "ProjectLintReport",
    "baseline_key",
    "lint_project",
    "load_baseline",
    "save_baseline",
]

BASELINE_VERSION = 1

#: The committed baseline checked by CI (repo root).
DEFAULT_BASELINE_PATH = ".repro-lint-baseline.json"

#: Every rule ``repro lint`` knows: per-file rules + analyzer passes.
ALL_RULES: dict[str, str] = {**LINT_RULES, **ANALYZER_RULES}


@dataclass(slots=True)
class ProjectLintReport:
    """Outcome of one :func:`lint_project` run."""

    violations: list[LintViolation]
    #: findings suppressed because they matched a baseline entry.
    baselined: int
    files_scanned: int
    model_build_s: float
    analyze_s: float
    #: exact post-baseline counts per rule (zero-count rules omitted).
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
            "violations": [
                {"rule": v.rule, "path": v.path, "line": v.line,
                 "col": v.col, "message": v.message}
                for v in self.violations
            ],
            "per_rule": self.per_rule,
            "baselined": self.baselined,
            "files_scanned": self.files_scanned,
            "model_build_s": self.model_build_s,
            "analyze_s": self.analyze_s,
        }


def baseline_key(violation: LintViolation) -> tuple[str, str, str]:
    """The identity a baseline entry matches on (line-number-insensitive)."""
    return (violation.rule, violation.path, violation.message)


def load_baseline(path: str | Path) -> set[tuple[str, str, str]]:
    """Grandfathered finding keys from ``path`` (missing file = empty)."""
    p = Path(path)
    if not p.exists():
        return set()
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"unreadable lint baseline {p}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
        raise ReproError(
            f"lint baseline {p} has unsupported version "
            f"{payload.get('version') if isinstance(payload, dict) else '?'}"
        )
    keys: set[tuple[str, str, str]] = set()
    for entry in payload.get("findings", []):
        if isinstance(entry, dict):
            keys.add((
                str(entry.get("rule", "")),
                str(entry.get("path", "")),
                str(entry.get("message", "")),
            ))
    return keys


def save_baseline(
    path: str | Path, violations: Iterable[LintViolation]
) -> int:
    """Write ``violations`` as the new baseline; returns the entry count."""
    findings = sorted(
        {baseline_key(v) for v in violations}
    )
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {"rule": rule, "path": vpath, "message": message}
            for rule, vpath, message in findings
        ],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return len(findings)


def lint_project(
    paths: Sequence[str | Path] = ("src",),
    *,
    rules: Iterable[str] | None = None,
    baseline_path: str | Path | None = None,
    model_cache: str | Path | None = None,
) -> ProjectLintReport:
    """Run every lint rule over ``paths`` and apply the baseline.

    Args:
        paths: files/directories to scan.
        rules: restrict to these rule ids (default: all of
            :data:`ALL_RULES`); unknown ids raise :class:`ReproError`.
            ``REP000`` (a file that cannot be read or parsed) is reported
            under any selection.
        baseline_path: baseline to subtract; None = no baseline.
        model_cache: pickle path for the project model (also settable via
            ``REPRO_MODEL_CACHE``).
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
        model = build_project_model(paths, cache_path=model_cache)
    with Timer() as analyze_timer:
        violations = [
            *model.errors,
            *run_lint_rules(model, selected),
            *run_analyzers(model, selected),
        ]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    baselined = 0
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        if baseline:
            kept: list[LintViolation] = []
            for violation in violations:
                if baseline_key(violation) in baseline:
                    baselined += 1
                else:
                    kept.append(violation)
            violations = kept

    return ProjectLintReport(
        violations=violations,
        baselined=baselined,
        files_scanned=len(model) + len(model.errors),
        model_build_s=build_timer.elapsed,
        analyze_s=analyze_timer.elapsed,
    )
