"""Control-plane configuration and decision records.

A :class:`ControlPolicy` is the *closed-loop* counterpart of the static
knobs on :class:`~repro.service.spec.FleetSpec`: instead of pinning one
admission policy, queue bound, and tree degree for the whole run, the fleet
runner consults the control plane once per **epoch** (a fixed-size batch of
arriving sessions) and lets three controllers move those knobs from observed
state — the decide→act→observe loop described in ``docs/CONTROL.md``.

Every move is recorded as an immutable :class:`ControlDecision` that
round-trips through JSON (:meth:`ControlDecision.to_dict` /
:meth:`ControlDecision.from_dict`), so the run ledger's decision log replays
to exactly the decisions the run made — controller behavior is deterministic
in ``(FleetSpec, seed)`` and auditable after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ReproError

__all__ = [
    "CONTROLLERS",
    "ESCALATION_LADDER",
    "ControlPolicy",
    "ControlDecision",
]

#: The admission-policy escalation ladder the SLO controller walks:
#: each stage sheds startup delay more aggressively than the last.
ESCALATION_LADDER = ("queue", "degrade", "reject")

#: Controller names appearing in decision records and ``control.*`` counters.
CONTROLLERS = ("slo", "degree", "churn")


@dataclass(frozen=True, slots=True)
class ControlPolicy:
    """Closed-loop policy for a fleet run.

    Attributes:
        slo_p99_delay: target p99 session startup delay, in slots (queue
            wait included) — the setpoint every controller steers toward.
        epoch_sessions: arriving sessions per control epoch (the
            decide→act→observe batch size).
        hysteresis: relative dead band around the setpoint.  The SLO
            controller only acts when the observed p99 leaves
            ``[target*(1-h), target*(1+h)]``, so measurement noise at the
            setpoint never flaps the admission policy.
        cooldown_epochs: epochs a controller stays quiet after acting, so
            one epoch's decision is observed before the next is made.
        ladder: admission-policy escalation order (tightest last).
        min_queue_slots: floor for the adaptive queue-wait bound.
        reoptimize_degree: enable the degree re-optimizer (paper Section 5:
            only d in {2, 3} is ever optimal).
        degree_candidates: degrees the re-optimizer may select among.
        churn_threshold: leave events per arriving session in an epoch at
            which the churn-repair controller fires.
        lazy_repair_threshold: churn intensity above which repairs use the
            appendix's *lazy* maintenance variant (defer tail tightening)
            instead of eager repair.
    """

    slo_p99_delay: int = 18
    epoch_sessions: int = 32
    hysteresis: float = 0.15
    cooldown_epochs: int = 2
    ladder: tuple[str, ...] = ESCALATION_LADDER
    min_queue_slots: int = 1
    reoptimize_degree: bool = True
    degree_candidates: tuple[int, ...] = (2, 3)
    churn_threshold: float = 0.25
    lazy_repair_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.slo_p99_delay < 1:
            raise ReproError(
                f"slo_p99_delay must be >= 1 slot, got {self.slo_p99_delay}"
            )
        if self.epoch_sessions < 1:
            raise ReproError(
                f"epoch_sessions must be >= 1, got {self.epoch_sessions}"
            )
        if not 0 <= self.hysteresis < 1:
            raise ReproError(
                f"hysteresis must be in [0, 1), got {self.hysteresis}"
            )
        if self.cooldown_epochs < 0:
            raise ReproError(
                f"cooldown_epochs must be >= 0, got {self.cooldown_epochs}"
            )
        object.__setattr__(self, "ladder", tuple(self.ladder))
        if not self.ladder:
            raise ReproError("the escalation ladder needs at least one stage")
        for stage in self.ladder:
            if stage not in ESCALATION_LADDER:
                raise ReproError(
                    f"unknown ladder stage {stage!r}; "
                    f"choose from {ESCALATION_LADDER}"
                )
        if self.min_queue_slots < 1:
            raise ReproError(
                f"min_queue_slots must be >= 1, got {self.min_queue_slots}"
            )
        object.__setattr__(
            self, "degree_candidates", tuple(sorted(set(self.degree_candidates)))
        )
        for degree in self.degree_candidates:
            if degree < 2:
                raise ReproError(
                    f"degree candidates must be >= 2, got {degree}"
                )
        if self.churn_threshold <= 0:
            raise ReproError(
                f"churn_threshold must be > 0, got {self.churn_threshold}"
            )
        if self.lazy_repair_threshold <= 0:
            raise ReproError(
                f"lazy_repair_threshold must be > 0, "
                f"got {self.lazy_repair_threshold}"
            )

    # ------------------------------------------------------------------- band
    @property
    def band(self) -> tuple[float, float]:
        """The hysteresis dead band ``(low, high)`` around the setpoint."""
        return (
            self.slo_p99_delay * (1.0 - self.hysteresis),
            self.slo_p99_delay * (1.0 + self.hysteresis),
        )


@dataclass(frozen=True, slots=True)
class ControlDecision:
    """One recorded control-plane action.

    Attributes:
        epoch: control epoch the decision was made in (decisions apply to
            this epoch's arrivals onward).
        controller: which controller acted (:data:`CONTROLLERS`).
        action: what it did — ``escalate`` / ``relax`` / ``tighten`` /
            ``widen`` (SLO controller), ``retune`` (degree re-optimizer),
            ``repair`` (churn controller).
        reason: human-readable trigger, e.g. ``p99 24 > band high 20.7``.
        observed_p99: the per-epoch p99 startup delay the decision was made
            on (None for decisions not driven by the delay signal).
        target_p99: the policy setpoint, for self-contained records.
        detail: JSON-safe action payload (old/new policy stage, queue
            bounds, per-kind degree moves, repair swap/touched/operation
            counts).
    """

    epoch: int
    controller: str
    action: str
    reason: str
    observed_p99: float | None = None
    target_p99: int = 0
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.controller not in CONTROLLERS:
            raise ReproError(
                f"unknown controller {self.controller!r}; "
                f"choose from {CONTROLLERS}"
            )
        if self.epoch < 0:
            raise ReproError(f"epoch must be >= 0, got {self.epoch}")

    def row(self) -> dict:
        """Compact dict for table rendering."""
        return {
            "epoch": self.epoch,
            "controller": self.controller,
            "action": self.action,
            "p99": self.observed_p99,
            "reason": self.reason,
        }

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-serializable record (inverse of :meth:`from_dict`)."""
        return {
            "epoch": self.epoch,
            "controller": self.controller,
            "action": self.action,
            "reason": self.reason,
            "observed_p99": self.observed_p99,
            "target_p99": self.target_p99,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ControlDecision":
        """Rebuild a decision from :meth:`to_dict` output (JSON round-trip)."""
        return cls(
            epoch=int(payload["epoch"]),
            controller=str(payload["controller"]),
            action=str(payload["action"]),
            reason=str(payload["reason"]),
            observed_p99=(
                None if payload.get("observed_p99") is None
                else float(payload["observed_p99"])
            ),
            target_p99=int(payload.get("target_p99", 0)),
            detail=dict(payload.get("detail", {})),
        )
