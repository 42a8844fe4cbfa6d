"""The load-ramp scenario: where static policies break and the plane holds.

One fleet, three phases: a calm **warmup**, a **burst** whose arrival rate
exceeds what the configured degree can serve inside the source fan-out
budget, and a **cooldown**.  At the configured ``d = 3`` the burst's
steady-state fan-out demand (``d * horizon * rate``) runs far above the
budget, so every *static* admission policy fails the offered-p99 SLO in its
own way:

* ``queue``   — waits grow without bound through the burst; queue waits are
  charged to startup delay, so the p99 blows through the SLO (and the wait
  bound converts the tail into ``queue_timeout`` rejects);
* ``reject``  — overflow sessions are turned away; a rejected viewer's
  delay is charged at ``REJECT_PENALTY_FACTOR * slo`` in the offered-p99,
  so more than 1% rejects is an automatic violation;
* ``degrade`` — admits at ``d = 3`` while the budget lasts, which *wastes*
  capacity (a ``d = 3``/N127 session occupies ~2× the fan-out×slots of its
  ``d = 2`` twin for the same 13-slot startup delay), so the burst still
  overflows into rejects.

The control plane's degree re-optimizer retunes the mix to ``d = 2`` (the
Theorem 2 argmin) at the first epoch, under which the whole burst fits the
budget — no waits, no rejects — while the SLO controller stands by to walk
the ladder if the delay signal ever leaves the band.  The same scenario at
reduced ``scale`` backs the CI ``control-plane-smoke`` job; full scale is
``benchmarks/bench_control_plane.py``.

This module imports the service layer, so it is *not* re-exported from
``repro.control`` (which the service layer imports) — import it directly:
``from repro.control.scenario import compare_policies``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.control.policy import ControlDecision, ControlPolicy
from repro.core.errors import ReproError
from repro.obs.quantiles import pooled_percentile
from repro.service.runner import FleetRunner, FleetRunResult
from repro.service.spec import CapacityModel, FleetSpec, SessionSpec

__all__ = [
    "RAMP_SLO",
    "RAMP_POLICIES",
    "REJECT_PENALTY_FACTOR",
    "RampOutcome",
    "ramp_arrival_slots",
    "ramp_fleet",
    "offered_p99",
    "run_ramp",
    "compare_policies",
]

#: The scenario's p99 startup-delay SLO, in slots.
RAMP_SLO = 18

#: A rejected viewer's delay charge in the offered-p99, as a multiple of the
#: SLO — rejection is a worse outcome than any admitted wait the SLO allows.
REJECT_PENALTY_FACTOR = 4

#: The policies :func:`compare_policies` races: three statics + the plane.
RAMP_POLICIES = ("queue", "reject", "degrade", "adaptive")

#: (fraction of sessions, arrivals per slot) for warmup / burst / cooldown.
_PHASES = ((0.25, 0.2), (0.5, 0.55), (0.25, 0.2))

#: The session kind under test: N=127 at the *wrong* degree.  Measured
#: startup delay is 13 slots at both d=3 and d=2, but the horizons differ
#: (57 vs 42 slots), so d=3 holds 3*57=171 fan-out-slots per session where
#: d=2 holds 2*42=84 — the degree retune doubles burst capacity for free.
_KIND = dict(scheme="multi-tree", num_nodes=127, degree=3, num_packets=12)

#: Source fan-out budget: fits the burst at d=2 (2*42*0.55 = 46.2), not at
#: d=3 (3*57*0.55 = 94.1).  Deliberately *not* a multiple of 3, so the
#: degrade ladder genuinely fires (a saturated all-d=3 fleet leaves one
#: spare unit — room for a d=2 admit, never a d=3 one).
_FANOUT_BUDGET = 47.0


def ramp_arrival_slots(
    num_sessions: int,
    phases: tuple[tuple[float, float], ...] = _PHASES,
) -> tuple[int, ...]:
    """Deterministic arrival trace for the three-phase load ramp.

    Each phase contributes ``round(fraction * num_sessions)`` sessions at
    evenly spaced ``1 / rate`` slot intervals (the last phase absorbs the
    rounding remainder), so the trace is explicit and identical at any
    scale factor — no RNG involved.
    """
    if num_sessions < len(phases):
        raise ReproError(
            f"need at least {len(phases)} sessions for {len(phases)} phases, "
            f"got {num_sessions}"
        )
    counts = [round(frac * num_sessions) for frac, _ in phases]
    counts[-1] = num_sessions - sum(counts[:-1])
    slots: list[int] = []
    clock = 0.0
    for (_, rate), count in zip(phases, counts):
        step = 1.0 / rate
        for _ in range(count):
            slots.append(int(clock))
            clock += step
    return tuple(slots)


def ramp_fleet(
    policy: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    slo: int = RAMP_SLO,
    epoch_sessions: int = 24,
) -> FleetSpec:
    """The ramp scenario under one admission policy (or the control plane).

    Args:
        policy: one of :data:`RAMP_POLICIES` — a static admission policy
            name, or ``adaptive`` for ``FleetSpec(controller=...)``.
        scale: session-count multiplier (CI runs ``scale < 1``).
        seed: fleet seed (kind assignment; arrivals are an explicit trace).
        slo: p99 startup-delay target handed to the controller.
        epoch_sessions: control epoch size for the adaptive run.
    """
    if policy not in RAMP_POLICIES:
        raise ReproError(
            f"unknown ramp policy {policy!r}; choose from {RAMP_POLICIES}"
        )
    num_sessions = max(12, round(240 * scale))
    controller = None
    admission = policy
    if policy == "adaptive":
        admission = "queue"
        controller = ControlPolicy(
            slo_p99_delay=slo,
            epoch_sessions=epoch_sessions,
            hysteresis=0.15,
            cooldown_epochs=2,
            min_queue_slots=2,
        )
    return FleetSpec(
        sessions=(SessionSpec(**_KIND),),
        num_sessions=num_sessions,
        arrival="trace",
        arrival_slots=ramp_arrival_slots(num_sessions),
        seed=seed,
        capacity=CapacityModel(source_fanout=_FANOUT_BUDGET, backbone=1e9),
        policy=admission,
        max_queue_slots=64,
        min_degree=2,
        aggregation="exact",
        controller=controller,
    )


@dataclass(frozen=True, slots=True)
class RampOutcome:
    """One policy's scorecard on the ramp.

    Attributes:
        policy: the :data:`RAMP_POLICIES` entry that ran.
        offered_p99: p99 startup delay over *offered* sessions — executed
            sessions at their true delay (queue wait included), rejected
            sessions charged ``REJECT_PENALTY_FACTOR * slo``.
        startup_p99: p99 over executed sessions only (the report's view).
        admitted / rejected: terminal admission tallies (admitted includes
            degraded sessions — they run).
        throughput: sessions that actually ran (the ≤10%-loss criterion's
            numerator).
        holds_slo: whether ``offered_p99 <= slo``.
        slo: the target the outcome was judged against.
        decisions: the control plane's decisions (empty for statics).
        result: the full :class:`~repro.service.runner.FleetRunResult`.
    """

    policy: str
    offered_p99: float
    startup_p99: int
    admitted: int
    rejected: int
    throughput: int
    holds_slo: bool
    slo: int
    decisions: tuple[ControlDecision, ...]
    result: FleetRunResult

    def row(self) -> dict:
        """Flat comparison row for tables and the bench report."""
        return {
            "policy": self.policy,
            "offered_p99": self.offered_p99,
            "startup_p99": self.startup_p99,
            "throughput": self.throughput,
            "rejected": self.rejected,
            "holds_slo": self.holds_slo,
            "decisions": len(self.decisions),
        }


def offered_p99(
    result: FleetRunResult,
    *,
    slo: int = RAMP_SLO,
    penalty_factor: int = REJECT_PENALTY_FACTOR,
) -> float:
    """p99 startup delay over every *offered* session.

    A policy must not be able to win by turning viewers away: executed
    sessions contribute their true startup delay (queue wait included) and
    each rejected session is charged ``penalty_factor * slo`` — strictly
    worse than any SLO-compliant wait.  Requires ``aggregation="exact"``;
    a report that keeps fewer sessions than it executed raises.
    """
    report = result.report
    if len(report.sessions) != report.admitted + report.degraded:
        raise ReproError(
            f"offered_p99 needs every executed session's startup delay, but the report keeps "
            f"{len(report.sessions)} of them: run with aggregation='exact', not 'sketch'"
        )
    startups = np.bincount(report.sessions.startup_delay)
    counts: Counter[int] = Counter({int(v): int(startups[v]) for v in np.flatnonzero(startups)})
    if report.rejected:
        counts[slo * penalty_factor] += report.rejected
    if not counts:
        raise ReproError("no offered sessions to score")
    return float(pooled_percentile(counts, 99))


def run_ramp(
    policy: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    slo: int = RAMP_SLO,
    runner: FleetRunner | None = None,
) -> RampOutcome:
    """Run the ramp under one policy and score it against the SLO."""
    fleet = ramp_fleet(policy, scale=scale, seed=seed, slo=slo)
    runner = runner if runner is not None else FleetRunner()
    result = runner.run(fleet)
    p99 = offered_p99(result, slo=slo)
    throughput = result.report.admitted + result.report.degraded
    return RampOutcome(
        policy=policy,
        offered_p99=p99,
        startup_p99=result.report.startup_p99,
        admitted=result.report.admitted + result.report.degraded,
        rejected=result.report.rejected,
        throughput=throughput,
        holds_slo=p99 <= slo,
        slo=slo,
        decisions=tuple(result.control_decisions),
        result=result,
    )


def compare_policies(
    *,
    scale: float = 1.0,
    seed: int = 0,
    slo: int = RAMP_SLO,
) -> dict[str, RampOutcome]:
    """Race every static policy and the control plane on the same ramp.

    Returns ``{policy: outcome}`` for :data:`RAMP_POLICIES`; the acceptance
    claim is that every static outcome has ``holds_slo=False``, the
    adaptive one ``holds_slo=True``, and adaptive throughput is within 10%
    of the best static.
    """
    return {
        policy: run_ramp(policy, scale=scale, seed=seed, slo=slo)
        for policy in RAMP_POLICIES
    }
