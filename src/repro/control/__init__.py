"""Feedback control plane for live fleets (``docs/CONTROL.md``).

Sits between the observability layer and the fleet service layer: once per
epoch (a fixed-size batch of arriving sessions) the
:class:`~repro.control.controllers.ControlPlane` reads the previous
epoch's p99 startup delay and admission tallies, then moves the fleet's
knobs — admission ladder stage and queue bound (SLO controller), per-kind
tree degree over the paper's Section-5 candidates (degree re-optimizer),
and the appendix tree repairs under churn (churn controller).

Attach it to a fleet with ``FleetSpec(controller=ControlPolicy(...))``;
the :class:`~repro.service.runner.FleetRunner` drives the
decide→act→observe loop and surfaces the decision log in
``result.artifacts`` and the run ledger.

This package never imports ``repro.service`` (the service layer imports
*us*, lazily, inside ``FleetRunner.run``); the load-ramp scenario shared
by the bench, the CI smoke job, and ``repro control`` lives in
:mod:`repro.control.scenario`, which is imported on demand for the same
reason.
"""

from repro.control.controllers import (
    ChurnRepairController,
    ControlPlane,
    DegreeOptimizer,
    EpochObservation,
    SLOController,
)
from repro.control.log import (
    CONTROL_RECORD,
    control_record,
    decisions_from_record,
)
from repro.control.policy import (
    CONTROLLERS,
    ESCALATION_LADDER,
    ControlDecision,
    ControlPolicy,
)

__all__ = [
    "CONTROLLERS",
    "CONTROL_RECORD",
    "ESCALATION_LADDER",
    "ChurnRepairController",
    "ControlDecision",
    "ControlPlane",
    "ControlPolicy",
    "DegreeOptimizer",
    "EpochObservation",
    "SLOController",
    "control_record",
    "decisions_from_record",
]
