"""The three feedback controllers and the plane that runs them per epoch.

The control plane closes the loop the ROADMAP sketches between the
observability layer and the fleet service layer.  Once per epoch the
:class:`ControlPlane` receives an :class:`EpochObservation` — the previous
epoch's p99 startup delay read off the streaming aggregation, admission
tallies, and the upcoming epoch's arrival mix and join/leave counts — and
runs three controllers in a fixed, deterministic order:

1. :class:`DegreeOptimizer` — re-evaluates the per-kind tree degree over
   ``d in {2, 3}`` (the paper's Section-5 result: no other degree is ever
   optimal) whenever the admitted mix shifts or the delay signal leaves the
   dead band.  A retune swaps the kind's compiled schedule group-wise: every
   later session of the kind compiles through the fleet's shared
   :class:`~repro.exec.cache.ScheduleCache` under the new degree's token.
2. :class:`SLOController` — walks the queue→degrade→reject admission ladder
   from the observed p99, tightening the queue-wait bound first (the
   cheapest threshold move) and escalating the policy stage only when the
   bound is already at its floor.  Hysteresis and cooldown keep it from
   flapping.
3. :class:`ChurnRepairController` — watches the epoch's leave/arrival ratio
   and, past the threshold, runs the paper's appendix add/delete repairs
   (:func:`~repro.trees.live.fleet_repair`) over each multi-tree kind in the
   mix and records the swaps and touched nodes.  A compiled schedule is a
   pure function of its cache key, so a repair invalidates none and nothing
   is recompiled.

Every action is a :class:`~repro.control.policy.ControlDecision`; the plane
also emits ``control.*`` counters, ``control.decide`` spans, and
``control_decision`` trace events, and its decision list feeds the run
ledger's decision log (``repro.control.log``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.control.policy import ControlDecision, ControlPolicy
from repro.obs.events import CONTROL_DECISION, EventTracer
from repro.obs.names import CONTROL_DECISIONS, CONTROL_EPOCHS, CONTROL_REPAIR_SWAPS
from repro.obs.registry import active_registry
from repro.obs.spans import SpanTracer, span_scope
from repro.theory import theorem2_bound
from repro.trees.live import fleet_repair

__all__ = [
    "EpochObservation",
    "SLOController",
    "DegreeOptimizer",
    "ChurnRepairController",
    "ControlPlane",
]


@dataclass(frozen=True, slots=True)
class EpochObservation:
    """What the control plane sees at the top of one epoch.

    ``p99`` describes the *previous* epoch's executed sessions (None at
    epoch 0 — nothing has run yet); the arrival fields describe the epoch
    about to be admitted.  Everything is derived from the resolved fleet
    and the executed sessions, so observations — and therefore decisions —
    are deterministic in ``(FleetSpec, seed)``.

    Attributes:
        epoch: the epoch index decisions made now will apply to.
        p99: previous epoch's p99 session startup delay (queue wait
            included), or None when no session has executed yet.  It is
            per epoch, not cumulative, because a cumulative quantile cannot
            recover once contaminated.
        arrivals: sessions arriving this epoch.
        joins: arriving sessions (the fleet-scale join rate).
        leaves: arriving sessions that will churn away early.
        mix: ``(kind label, count)`` tallies of this epoch's arrivals.
    """

    epoch: int
    p99: float | None = None
    arrivals: int = 0
    joins: int = 0
    leaves: int = 0
    mix: tuple[tuple[str, int], ...] = ()


class SLOController:
    """Moves the admission ladder from the observed p99 startup delay.

    Escalation (p99 above the dead band) first halves the queue-wait bound
    — queued sessions charge their wait to startup delay, so a tighter
    bound directly caps the tail — and advances the policy stage
    (queue→degrade→reject) once the bound hits its floor.  Relaxation
    (p99 below the band) reverses the walk: back down the ladder first,
    then widen the bound toward its initial value.  ``cooldown_epochs``
    must elapse between actions so every move is observed before the next.
    """

    def __init__(
        self, policy: ControlPolicy, *,
        initial_stage: str, max_queue_slots: int,
    ) -> None:
        self.policy = policy
        ladder = policy.ladder
        self._stage = (
            ladder.index(initial_stage) if initial_stage in ladder else 0
        )
        self._initial_queue_slots = max(max_queue_slots, policy.min_queue_slots)
        self.max_queue_slots = self._initial_queue_slots
        self._cooldown = 0

    @property
    def stage(self) -> str:
        """The admission policy currently in force."""
        return self.policy.ladder[self._stage]

    def decide(self, obs: EpochObservation) -> ControlDecision | None:
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        if obs.p99 is None:
            return None
        low, high = self.policy.band
        if obs.p99 > high:
            return self._escalate(obs, high)
        if obs.p99 < low:
            return self._relax(obs, low)
        return None

    def _acted(self, decision: ControlDecision) -> ControlDecision:
        self._cooldown = self.policy.cooldown_epochs
        return decision

    def _escalate(self, obs: EpochObservation, high: float) -> ControlDecision | None:
        reason = f"p99 {obs.p99:g} > band high {high:g}"
        if self.max_queue_slots > self.policy.min_queue_slots:
            old = self.max_queue_slots
            self.max_queue_slots = max(
                self.policy.min_queue_slots, old // 2
            )
            return self._acted(ControlDecision(
                epoch=obs.epoch, controller="slo", action="tighten",
                reason=reason, observed_p99=obs.p99,
                target_p99=self.policy.slo_p99_delay,
                detail={"max_queue_slots": [old, self.max_queue_slots]},
            ))
        if self._stage + 1 < len(self.policy.ladder):
            old_stage = self.stage
            self._stage += 1
            return self._acted(ControlDecision(
                epoch=obs.epoch, controller="slo", action="escalate",
                reason=reason, observed_p99=obs.p99,
                target_p99=self.policy.slo_p99_delay,
                detail={"policy": [old_stage, self.stage]},
            ))
        return None  # already at the tightest stage with the bound floored

    def _relax(self, obs: EpochObservation, low: float) -> ControlDecision | None:
        reason = f"p99 {obs.p99:g} < band low {low:g}"
        if self._stage > 0:
            old_stage = self.stage
            self._stage -= 1
            return self._acted(ControlDecision(
                epoch=obs.epoch, controller="slo", action="relax",
                reason=reason, observed_p99=obs.p99,
                target_p99=self.policy.slo_p99_delay,
                detail={"policy": [old_stage, self.stage]},
            ))
        if self.max_queue_slots < self._initial_queue_slots:
            old = self.max_queue_slots
            self.max_queue_slots = min(self._initial_queue_slots, old * 2)
            return self._acted(ControlDecision(
                epoch=obs.epoch, controller="slo", action="widen",
                reason=reason, observed_p99=obs.p99,
                target_p99=self.policy.slo_p99_delay,
                detail={"max_queue_slots": [old, self.max_queue_slots]},
            ))
        return None  # fully relaxed already


class DegreeOptimizer:
    """Re-evaluates each kind's degree over the Section-5 candidate set.

    The paper proves the delay-optimal degree is always 2 or 3 (Section 5);
    at fleet scale a smaller degree is *doubly* cheaper — ``d`` fan-out
    units per session and a shorter compiled horizon — so the optimizer
    picks, per multi-tree kind, the candidate minimizing the Theorem 2
    delay bound ``h(N, d) * d`` with ties broken toward the smaller (=
    cheaper) degree.  It re-evaluates when the mix shifts (a kind first
    appears) or the delay signal leaves the dead band, under the shared
    cooldown.  A retune is applied group-wise: every later arrival of the
    kind resolves its schedule through the cache under the new degree.
    """

    def __init__(self, policy: ControlPolicy, *, min_degree: int = 2) -> None:
        self.policy = policy
        self.min_degree = min_degree
        self.overrides: dict[str, int] = {}
        self._seen: set[str] = set()
        self._cooldown = 0

    def _best_degree(self, num_nodes: int) -> int:
        candidates = [
            d for d in self.policy.degree_candidates if d >= self.min_degree
        ]
        if not candidates:
            candidates = [self.min_degree]
        return min(candidates, key=lambda d: (theorem2_bound(num_nodes, d), d))

    def decide(
        self, obs: EpochObservation, kinds: Mapping[str, Any]
    ) -> ControlDecision | None:
        if not self.policy.reoptimize_degree:
            return None
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        labels = [label for label, _ in obs.mix]
        mix_shifted = any(label not in self._seen for label in labels)
        self._seen.update(labels)
        low, high = self.policy.band
        under_pressure = obs.p99 is not None and not low <= obs.p99 <= high
        if not (mix_shifted or under_pressure):
            return None
        moves: dict[str, list[int]] = {}
        for label in sorted(set(labels)):
            spec = kinds.get(label)
            if spec is None or spec.scheme != "multi-tree":
                continue
            current = self.overrides.get(label, spec.degree)
            best = self._best_degree(spec.num_nodes)
            if best != current:
                moves[label] = [current, best]
                self.overrides[label] = best
        if not moves:
            return None
        self._cooldown = self.policy.cooldown_epochs
        trigger = "mix shift" if mix_shifted else f"p99 {obs.p99:g} out of band"
        return ControlDecision(
            epoch=obs.epoch, controller="degree", action="retune",
            reason=f"{trigger}; Thm 2 bound prefers "
                   + ", ".join(f"d={new} for {label}" for label, (_, new) in moves.items()),
            observed_p99=obs.p99, target_p99=self.policy.slo_p99_delay,
            detail={"degrees": moves},
        )


class ChurnRepairController:
    """Triggers appendix add/delete repairs when churn crosses the threshold.

    When an epoch's ``leaves / arrivals`` ratio reaches
    ``churn_threshold``, each multi-tree kind in the epoch's mix absorbs
    the epoch's churn through :func:`~repro.trees.live.fleet_repair` —
    eager repair below ``lazy_repair_threshold``, the appendix's lazy
    variant above it (heavier churn amortizes better by deferring tail
    tightening).
    """

    def __init__(self, policy: ControlPolicy, *, seed: int = 0) -> None:
        self.policy = policy
        self.seed = seed
        self._cooldown = 0

    def decide(
        self,
        obs: EpochObservation,
        kinds: Mapping[str, Any],
        *,
        degrees: Mapping[str, int],
    ) -> ControlDecision | None:
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        if obs.arrivals == 0:
            return None
        intensity = obs.leaves / obs.arrivals
        if intensity < self.policy.churn_threshold:
            return None
        lazy = intensity >= self.policy.lazy_repair_threshold
        repaired: dict[str, dict[str, Any]] = {}
        for label, _count in obs.mix:
            spec = kinds.get(label)
            if spec is None or spec.scheme != "multi-tree" or label in repaired:
                continue
            degree = degrees.get(label, spec.degree)
            outcome = fleet_repair(
                spec.num_nodes, degree,
                joins=obs.joins, leaves=obs.leaves, lazy=lazy,
                construction=spec.construction,
                seed=self.seed + obs.epoch,
            )
            repaired[label] = {
                "swaps": outcome.swaps,
                "touched": len(outcome.touched),
                "operations": len(outcome.reports),
            }
        if not repaired:
            return None
        self._cooldown = self.policy.cooldown_epochs
        return ControlDecision(
            epoch=obs.epoch, controller="churn", action="repair",
            reason=(
                f"churn intensity {intensity:.2f} >= "
                f"{self.policy.churn_threshold:g}"
                + (" (lazy)" if lazy else "")
            ),
            observed_p99=obs.p99, target_p99=self.policy.slo_p99_delay,
            detail={
                "intensity": round(intensity, 4),
                "lazy": lazy,
                "kinds": repaired,
            },
        )


class ControlPlane:
    """Runs the three controllers once per epoch and records their moves.

    Args:
        policy: the :class:`~repro.control.policy.ControlPolicy` setpoints.
        initial_policy: the fleet's configured admission policy (the SLO
            controller's starting ladder stage).
        max_queue_slots: the fleet's configured queue-wait bound (the
            adaptive bound's ceiling).
        min_degree: fleet degrade floor, honored by the degree optimizer.
        seed: fleet seed (repair victim draws).
        spans: optional :class:`~repro.obs.spans.SpanTracer` for
            ``control.decide`` decision spans.
        tracer: optional event tracer receiving one ``control_decision``
            event per action.
    """

    def __init__(
        self,
        policy: ControlPolicy,
        *,
        initial_policy: str = "queue",
        max_queue_slots: int = 64,
        min_degree: int = 2,
        seed: int = 0,
        spans: SpanTracer | None = None,
        tracer: EventTracer | None = None,
    ) -> None:
        self.policy = policy
        self.spans = spans
        self.tracer = tracer
        self.slo = SLOController(
            policy, initial_stage=initial_policy, max_queue_slots=max_queue_slots
        )
        self.degree = DegreeOptimizer(policy, min_degree=min_degree)
        self.churn = ChurnRepairController(policy, seed=seed)
        self.decisions: list[ControlDecision] = []

    # ------------------------------------------------------------ knob state
    @property
    def admission_policy(self) -> str:
        """The ladder stage currently applied to the session manager."""
        return self.slo.stage

    @property
    def max_queue_slots(self) -> int:
        """The queue-wait bound currently applied to the session manager."""
        return self.slo.max_queue_slots

    @property
    def degree_overrides(self) -> dict[str, int]:
        """Per-kind degree retunes currently in force (label -> degree)."""
        return dict(self.degree.overrides)

    # ------------------------------------------------------------------- api
    def step(
        self, obs: EpochObservation, kinds: Mapping[str, Any]
    ) -> list[ControlDecision]:
        """Decide this epoch's actions; returns the decisions made.

        ``kinds`` maps kind labels to their :class:`SessionSpec`-shaped
        objects (scheme / num_nodes / degree / num_packets / ...).  The
        controllers run in fixed order — degree, SLO, churn — so the
        decision list is deterministic for a given observation sequence.
        """
        registry = active_registry()
        registry.counter(CONTROL_EPOCHS).inc()
        made: list[ControlDecision] = []
        with span_scope(self.spans, "control.decide", epoch=obs.epoch):
            degree_move = self.degree.decide(obs, kinds)
            if degree_move is not None:
                made.append(degree_move)
            slo_move = self.slo.decide(obs)
            if slo_move is not None:
                made.append(slo_move)
            churn_move = self.churn.decide(obs, kinds, degrees=self.degree.overrides)
            if churn_move is not None:
                made.append(churn_move)
                repair = churn_move.detail.get("kinds", {})
                swaps = sum(k["swaps"] for k in repair.values())
                if swaps:
                    registry.counter(CONTROL_REPAIR_SWAPS).inc(swaps)
        for decision in made:
            registry.counter(
                CONTROL_DECISIONS,
                controller=decision.controller, action=decision.action,
            ).inc()
            if self.tracer is not None:
                self.tracer.emit(
                    CONTROL_DECISION, obs.epoch,
                    controller=decision.controller, action=decision.action,
                    epoch=decision.epoch,
                )
        self.decisions.extend(made)
        return made
