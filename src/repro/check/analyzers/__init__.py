"""Model-based analyzer passes (REP005–REP007) over a :class:`ProjectModel`.

Where the per-file rules of :mod:`repro.check.lint` look at one module's
tree at a time, the passes in this package consume the whole-project model
(:mod:`repro.check.model`): the process-safety pass knows every
module-level binding and mutable container of each module, the
metric-name pass resolves emitted names against the declared registry in
:mod:`repro.obs.names`, and the frozen-spec pass knows every
``@dataclass(frozen=True)`` in the tree.

Each pass is one module exposing ``RULE`` (its id), ``DESCRIPTION``, and
``analyze(model) -> list[LintViolation]``.  :func:`run_analyzers` runs a
selection of passes and applies the per-file pragma suppressions the model
already parsed (:meth:`ProjectModel.unsuppressed`, the same filter the
per-file rules go through), so ``# repro-lint: disable=REP005`` (file- or
line-level) works exactly as it does for REP001–REP004.
"""

from __future__ import annotations

from repro.check.model import LintViolation, ProjectModel

from . import frozen_spec, metric_names, process_safety

__all__ = [
    "ANALYZER_RULES",
    "run_analyzers",
]

_PASSES = (process_safety, metric_names, frozen_spec)

#: rule id -> one-line description (docs/CHECKS.md holds the catalogue).
ANALYZER_RULES: dict[str, str] = {
    module.RULE: module.DESCRIPTION for module in _PASSES
}


def run_analyzers(
    model: ProjectModel, rules: frozenset[str] | None = None
) -> list[LintViolation]:
    """Run the analyzer passes over ``model`` and return their findings.

    Args:
        model: the shared project model.
        rules: restrict to these rule ids (None = every pass).

    Findings are pragma-filtered per file and come back sorted by
    ``(path, line, col, rule)`` like :func:`repro.check.lint.lint_paths`.
    """
    violations: list[LintViolation] = []
    for module in _PASSES:
        if rules is None or module.RULE in rules:
            violations.extend(module.analyze(model))
    return sorted(
        model.unsuppressed(violations),
        key=lambda v: (v.path, v.line, v.col, v.rule),
    )
