"""Static verification layer: schedule model checking and project lint.

Two pillars, both engine-free:

* :mod:`repro.check.schedule` / :mod:`repro.check.invariants` — certify a
  :class:`~repro.exec.compiler.CompiledSchedule` against the paper's
  communication model (per-slot capacities, causal forwarding, exactly-once
  coverage) and the theorem bounds (Thm 2's ``h*d`` delay/buffer for the
  multi-tree scheme, the hypercube's 2-packet buffer, Prop 2's delay bound)
  without running a single simulated slot.  Exposed as ``repro check`` and
  as ``compile_schedule(..., verify=True)`` (verify-on-miss: a fresh compile
  must pass before it may enter the schedule cache).  The same
  invariants certify a finished engine trace's transmission log post hoc
  (:func:`~repro.check.schedule.check_trace`, behind ``repro verify``).
* :mod:`repro.check.model` — the project model, the one reader behind
  ``repro lint``: it walks the paths, parses each file once, and indexes
  ASTs, symbol tables, the import graph and each file's pragmas.  A file
  it cannot read or parse is a ``REP000`` finding.
* :mod:`repro.check.lint` — the per-file rules, one pass over each
  module's tree (stdlib :mod:`ast` only) enforcing the project's
  determinism and error-handling discipline: seeded RNG only (REP001),
  wall-clock reads confined to ``repro/obs/`` (REP002), no bare
  ``assert`` in library code (REP003), no iteration over unordered set
  expressions where order feeds transmission emission (REP004).  REP001
  and REP002 share one import-resolving classifier of nondeterministic
  calls.
* :mod:`repro.check.analyzers` — the passes that need the whole model:
  shared-state mutation in any function a pool worker may run (REP005),
  metric/event-name drift against :mod:`repro.obs.names` (REP006), and
  frozen-spec mutation (REP007).

All lint layers run through :func:`repro.check.project.lint_project`
(``repro lint``): one model build, every rule over it, one pragma filter;
any finding left fails the gate.

``docs/CHECKS.md`` catalogues every invariant and lint rule with its paper
reference and rationale.
"""

from repro.check.analyzers import ANALYZER_RULES, run_analyzers
from repro.check.invariants import RULES, ScheduleFacts, Violation
from repro.check.lint import (
    LINT_RULES,
    LintViolation,
    Suppressions,
    format_violations,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.check.model import (
    ModuleInfo,
    ProjectModel,
    build_project_model,
)
from repro.check.project import (
    ALL_RULES,
    ProjectLintReport,
    lint_project,
)
from repro.check.schedule import (
    DEFAULT_GRID_DEGREES,
    DEFAULT_GRID_NODES,
    CheckReport,
    check_config,
    check_schedule,
    check_trace,
    smoke_grid,
)

__all__ = [
    "ALL_RULES",
    "ANALYZER_RULES",
    "DEFAULT_GRID_DEGREES",
    "DEFAULT_GRID_NODES",
    "CheckReport",
    "LINT_RULES",
    "LintViolation",
    "ModuleInfo",
    "ProjectLintReport",
    "ProjectModel",
    "RULES",
    "ScheduleFacts",
    "Suppressions",
    "Violation",
    "build_project_model",
    "check_config",
    "check_schedule",
    "check_trace",
    "format_violations",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "run_analyzers",
    "smoke_grid",
]
