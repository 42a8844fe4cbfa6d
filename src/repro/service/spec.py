"""Fleet scenario model: what a multi-session service run looks like.

A :class:`SessionSpec` is one *kind* of streaming session — a scheme
configuration (``scheme``, ``N``, ``d``, construction, latency), a measured
stream prefix, and a loss/repair profile — plus a traffic ``weight``.  A
:class:`FleetSpec` mixes several session kinds, says how many sessions arrive
and by which arrival process (Poisson, uniform window, or an explicit trace),
how the shared infrastructure is budgeted (:class:`CapacityModel`), and which
admission policy applies when the budget runs out.

``FleetSpec.resolve()`` expands the scenario into concrete
:class:`ResolvedSession` objects — one per session, each with its arrival
slot, per-session RNG seed, assigned kind, and (for churned sessions) an
early-departure fraction — deterministically in the fleet seed, so the same
spec always describes the same fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ReproError, check_fields
from repro.exec.compiler import COMPILABLE_SCHEMES
from repro.obs.convergence import ConvergenceCriterion
from repro.repair.slack import SlackPolicy
from repro.workloads.arrivals import (
    poisson_arrival_slots,
    trace_arrival_slots,
    uniform_arrival_slots,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_PROCESSES",
    "CapacityModel",
    "SessionSpec",
    "FleetSpec",
    "ResolvedSession",
]

ARRIVAL_PROCESSES = ("poisson", "uniform", "trace")
ADMISSION_POLICIES = ("reject", "queue", "degrade")


@dataclass(frozen=True, slots=True)
class SessionSpec:
    """One kind of streaming session in a fleet.

    Attributes:
        scheme: streaming scheme; must be compilable (fleet sessions replay
            compiled schedules, so randomized schemes are excluded).
        num_nodes / degree: population ``N`` and degree ``d`` of the session.
        construction / mode / latency: multi-tree knobs (as in
            :class:`~repro.experiments.ExperimentSpec`).
        num_packets: measured stream prefix per session.
        drop_rate: Bernoulli per-transmission drop probability of this
            session's loss profile.
        repair_epsilon: when set, the session is slack-provisioned for repair
            at rate ``1 - ε`` (see :class:`~repro.repair.slack.SlackPolicy`);
            admission charges the ``1/(1-ε)`` throughput overhead.
        weight: relative share of fleet traffic this kind receives.
        label: display name (defaults to ``scheme/N{n}/d{d}``, plus an
            ``abr-<profile>`` suffix for ABR session kinds).
        abr_profile: when set, sessions of this kind additionally run a
            deterministic adaptive-bitrate playback session against the named
            :data:`~repro.abr.traces.TRACE_PROFILES` bandwidth profile, and
            their SLOs carry the resulting QoE metrics.
    """

    scheme: str = "multi-tree"
    num_nodes: int = 31
    degree: int = 3
    construction: str = "structured"
    mode: str = "prerecorded"
    latency: int = 1
    num_packets: int = 16
    drop_rate: float = 0.0
    repair_epsilon: float | None = None
    weight: float = 1.0
    label: str = ""
    abr_profile: str | None = None

    def __post_init__(self) -> None:
        check_fields(self, ("num_nodes", "degree", "latency", "num_packets"))
        if self.scheme not in COMPILABLE_SCHEMES:
            raise ReproError(
                f"fleet sessions replay compiled schedules; scheme "
                f"{self.scheme!r} is not compilable (choose from "
                f"{COMPILABLE_SCHEMES})"
            )
        if self.num_nodes < 1:
            raise ReproError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_packets < 1:
            raise ReproError(f"num_packets must be >= 1, got {self.num_packets}")
        if not 0 <= self.drop_rate <= 1:
            raise ReproError(f"drop_rate must be in [0, 1], got {self.drop_rate}")
        if not 0 < self.weight < math.inf:
            raise ReproError(f"session weight must be finite and > 0, got {self.weight}")
        if self.repair_epsilon is not None:
            # Delegate the ε range check (and its error message) to the
            # repair subsystem's own policy.
            SlackPolicy(epsilon=self.repair_epsilon)
        if self.abr_profile is not None:
            # Lazy import: service must stay importable without pulling the
            # whole abr subsystem in at module load.
            from repro.abr.traces import TRACE_PROFILES

            if self.abr_profile not in TRACE_PROFILES:
                raise ReproError(
                    f"unknown ABR trace profile {self.abr_profile!r}; "
                    f"choose from {tuple(sorted(TRACE_PROFILES))}"
                )
        if not self.label:
            label = f"{self.scheme}/N{self.num_nodes}/d{self.degree}"
            if self.abr_profile is not None:
                label += f"/abr-{self.abr_profile}"
            object.__setattr__(self, "label", label)

    # ----------------------------------------------------------------- costs
    @property
    def slack_factor(self) -> float:
        """Throughput overhead of the session's repair provisioning.

        ``1.0`` for unprovisioned sessions; thin-mode slack at rate ``1 - ε``
        costs ``k / (k - 1)`` where ``k`` is the repair period — the exact
        dilation :class:`~repro.repair.slack.SlackProvisioner` applies.
        """
        if self.repair_epsilon is None:
            return 1.0
        period = SlackPolicy(epsilon=self.repair_epsilon).period
        return period / (period - 1)

    def fanout_cost(self, degree: int | None = None) -> float:
        """Source fan-out units this session holds while active."""
        return (self.degree if degree is None else degree) * self.slack_factor

    def backbone_cost(self) -> float:
        """Backbone units (aggregate receiver slots) this session holds."""
        return self.num_nodes * self.slack_factor

    def with_degree(self, degree: int) -> "SessionSpec":
        """A copy of this kind at a different degree (admission degrade)."""
        from dataclasses import replace

        return replace(self, degree=degree, label="")


@dataclass(frozen=True, slots=True)
class CapacityModel:
    """Shared-infrastructure budgets the fleet admits sessions against.

    Attributes:
        source_fanout: aggregate concurrent source fan-out budget — the sum
            of active sessions' ``d`` (times their slack factor) may not
            exceed it.  The per-session analogue of the paper's source send
            capacity ``d``.
        backbone: aggregate concurrent receiver budget — the sum of active
            sessions' ``N`` (times slack) may not exceed it.  The fleet
            analogue of the backbone horizon ``D`` a deployment provisions.
    """

    source_fanout: float = 64.0
    backbone: float = 8192.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.source_fanout <= 0:
            raise ReproError(
                f"source_fanout budget must be > 0, got {self.source_fanout}"
            )
        if self.backbone <= 0:
            raise ReproError(f"backbone budget must be > 0, got {self.backbone}")

    def fits(self, used_fanout: float, used_backbone: float,
             fanout: float, backbone: float) -> bool:
        """Would one more session with these costs stay inside both budgets?"""
        return (
            used_fanout + fanout <= self.source_fanout + 1e-9
            and used_backbone + backbone <= self.backbone + 1e-9
        )


@dataclass(frozen=True, slots=True)
class ResolvedSession:
    """One concrete session of a resolved fleet scenario.

    Attributes:
        session_id: dense index in arrival order.
        spec: the session kind this session was assigned.
        arrival_slot: slot the session asks to be admitted.
        seed: per-session RNG seed (loss masks).
        leave_fraction: None for sessions that watch to the end; otherwise
            the fraction of the session horizon watched before churning away.
    """

    session_id: int
    spec: SessionSpec
    arrival_slot: int
    seed: int
    leave_fraction: float | None = None


@dataclass(frozen=True, slots=True)
class FleetSpec:
    """A full multi-session scenario.

    Attributes:
        sessions: the session kinds in the mix (weights set their shares).
        num_sessions: total sessions arriving over the scenario.
        arrival: ``poisson`` (rate ``arrival_rate`` sessions/slot),
            ``uniform`` (spread over ``horizon`` slots), or ``trace``
            (explicit ``arrival_slots``).
        arrival_rate: Poisson arrival intensity.
        horizon: uniform-arrival window (defaults to
            ``num_sessions / arrival_rate`` when unset).
        arrival_slots: explicit arrival trace (``arrival="trace"``).
        seed: fleet RNG seed (arrivals, kind assignment, churn draws).
        capacity: shared-infrastructure budgets.
        policy: what happens when a session does not fit — ``reject`` it,
            ``queue`` it until capacity frees (bounded by
            ``max_queue_slots``), or ``degrade`` its degree down to
            ``min_degree`` until it fits.
        max_queue_slots: longest admission wait before a queued session is
            rejected anyway.
        min_degree: floor for the degrade policy.
        churn_rate: fraction of sessions that depart before stream end
            (their SLO is measured over the watched prefix).
        aggregation: ``exact`` pools SLO percentiles exactly and keeps every
            per-session SLO on the report; ``sketch`` streams sessions into
            bounded-memory quantile sketches (error bound ``sketch_error``)
            and drops per-session detail — the fleet-scale mode.
        sketch_error: relative-error bound of ``sketch`` aggregation.
        convergence: when set, a
            :class:`~repro.obs.convergence.ConvergenceCriterion` that stops
            executing sessions early once the tracked SLO quantile's CI
            half-width criterion is met (the open-loop steady-state mode;
            executes in batches of ``convergence.check_every``).
        controller: optional :class:`~repro.control.ControlPolicy` attaching
            the feedback control plane (``docs/CONTROL.md``).  When set, the
            runner admits sessions in epochs of ``controller.epoch_sessions``
            and lets the SLO / degree / churn controllers move ``policy``,
            ``max_queue_slots``, and per-kind degrees between epochs.
            Mutually exclusive with ``convergence``.
    """

    sessions: tuple[SessionSpec, ...] = (SessionSpec(),)
    num_sessions: int = 100
    arrival: str = "poisson"
    arrival_rate: float = 4.0
    horizon: int | None = None
    arrival_slots: tuple[int, ...] = ()
    seed: int = 0
    capacity: CapacityModel = field(default_factory=CapacityModel)
    policy: str = "queue"
    max_queue_slots: int = 64
    min_degree: int = 2
    churn_rate: float = 0.0
    aggregation: str = "exact"
    sketch_error: float = 0.01
    convergence: ConvergenceCriterion | None = None
    controller: object | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sessions", tuple(self.sessions))
        object.__setattr__(self, "arrival_slots", tuple(self.arrival_slots))
        if not self.sessions:
            raise ReproError("a fleet needs at least one SessionSpec")
        for kind in self.sessions:
            if not isinstance(kind, SessionSpec):
                raise ReproError(f"FleetSpec.sessions entries must be SessionSpec, got {kind!r}")
        if (
            not isinstance(self.seed, (int, np.integer))
            or isinstance(self.seed, bool)
            or self.seed < 0
        ):
            raise ReproError(f"fleet seed must be an int >= 0, got {self.seed!r}")
        check_fields(self, ("num_sessions", "horizon", "max_queue_slots", "min_degree"))
        if self.num_sessions < 1:
            raise ReproError(f"num_sessions must be >= 1, got {self.num_sessions}")
        if not self.arrival_rate > 0:
            raise ReproError(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ReproError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {ARRIVAL_PROCESSES}"
            )
        if self.arrival == "trace" and not self.arrival_slots:
            raise ReproError("arrival='trace' needs a non-empty arrival_slots")
        if self.policy not in ADMISSION_POLICIES:
            raise ReproError(
                f"unknown admission policy {self.policy!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
        if not 0 <= self.churn_rate <= 1:
            raise ReproError(f"churn_rate must be in [0, 1], got {self.churn_rate}")
        if self.max_queue_slots < 0:
            raise ReproError(
                f"max_queue_slots must be >= 0, got {self.max_queue_slots}"
            )
        if self.min_degree < 2:
            raise ReproError(f"min_degree must be >= 2, got {self.min_degree}")
        if self.aggregation not in ("exact", "sketch"):
            raise ReproError(
                f"aggregation must be 'exact' or 'sketch', got "
                f"{self.aggregation!r}"
            )
        if not 0 < self.sketch_error < 1:
            raise ReproError(
                f"sketch_error must be in (0, 1), got {self.sketch_error}"
            )
        if self.convergence is not None and not isinstance(
            self.convergence, ConvergenceCriterion
        ):
            raise ReproError(
                "convergence must be a ConvergenceCriterion or None, got "
                f"{self.convergence!r}"
            )
        if self.controller is not None:
            # Duck-typed (the control plane lives above the service layer;
            # importing repro.control here would invert the dependency).
            for attr in ("epoch_sessions", "slo_p99_delay", "band"):
                if not hasattr(self.controller, attr):
                    raise ReproError(
                        "controller must be a repro.control.ControlPolicy "
                        f"(missing {attr!r})"
                    )
            if self.convergence is not None:
                raise ReproError(
                    "controller and convergence are mutually exclusive; "
                    "the control plane owns the epoch loop"
                )

    # ------------------------------------------------------------- expansion
    def _arrivals(self) -> list[int]:
        if self.arrival == "poisson":
            return poisson_arrival_slots(
                self.num_sessions, self.arrival_rate, seed=self.seed
            )
        if self.arrival == "uniform":
            horizon = self.horizon or max(
                1, round(self.num_sessions / self.arrival_rate)
            )
            return uniform_arrival_slots(self.num_sessions, horizon, seed=self.seed)
        return trace_arrival_slots(self.num_sessions, self.arrival_slots)

    def resolve(self) -> tuple[ResolvedSession, ...]:
        """Expand the scenario into concrete sessions, arrival-ordered.

        Deterministic in ``seed``: kinds are drawn with weight-proportional
        probability, per-session seeds are drawn from the fleet stream, and
        churned sessions get a leave fraction in ``[0.5, 0.95]``.
        """
        arrivals = self._arrivals()
        rng = np.random.default_rng(self.seed)
        weights = np.array([s.weight for s in self.sessions], dtype=float)
        weights /= weights.sum()
        # Convert each drawn column to Python scalars once, not per session.
        kinds = rng.choice(len(self.sessions), size=self.num_sessions, p=weights).tolist()
        seeds = rng.integers(0, 2**31 - 1, size=self.num_sessions).tolist()
        churned = (rng.random(self.num_sessions) < self.churn_rate).tolist()
        fractions = rng.uniform(0.5, 0.95, size=self.num_sessions).tolist()
        return tuple(
            ResolvedSession(i, self.sessions[kind], arrival, seed, fraction if churn else None)
            for i, (kind, arrival, seed, churn, fraction) in enumerate(
                zip(kinds, arrivals, seeds, churned, fractions)
            )
        )

    def describe(self) -> str:
        kinds = ", ".join(
            f"{s.label} (w={s.weight:g})" for s in self.sessions
        )
        return (
            f"fleet[{self.num_sessions} sessions, {self.arrival} arrivals, "
            f"policy={self.policy}, fanout<={self.capacity.source_fanout:g}, "
            f"backbone<={self.capacity.backbone:g}] over {kinds}"
        )
