"""Online SLO-convergence detection for open-loop fleet runs.

The ROADMAP's steady-state mode runs a fleet not for a fixed session
count but *until the SLO estimate converges*.  "Converged" here means a
distribution-free confidence interval on the tracked quantile is narrow
relative to the estimate itself.

**Criterion.**  For quantile ``q`` of ``n`` observations, the classic
order-statistics CI brackets the true quantile between the sample ranks

    lower = floor(n*q - z * sqrt(n * q * (1 - q)))
    upper = ceil(n*q + z * sqrt(n * q * (1 - q)))

(clamped to ``[1, n]``), where ``z`` is the two-sided normal critical
value for the configured confidence level.  The value bounds at those
ranks are read exactly off the observed ``value -> count`` table
(:func:`repro.obs.quantiles.value_at_rank`).  The run is **converged**
once ``n >= min_count`` and the CI half-width
``(upper_value - lower_value) / 2`` is at most
``rel_half_width * estimate``.  With a degenerate distribution the
half-width is 0 and convergence fires as soon as ``min_count`` is met.

Everything is deterministic — the normal critical value comes from
``statistics.NormalDist`` (no sampling, no bootstrap RNG), so the same
observation stream always converges at the same count.

Wiring: when ``FleetSpec.convergence`` is set,
:class:`repro.service.runner.FleetRunner` checks its aggregator's
startup-delay table between execution batches; see ``docs/TELEMETRY.md``.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from .quantiles import V, pooled_percentile, value_at_rank

__all__ = ["ConvergenceCriterion", "ConvergenceDetector", "ConvergenceState"]


@dataclass(frozen=True, slots=True)
class ConvergenceCriterion:
    """When to declare a quantile estimate converged.

    Args:
        quantile: tracked percentile in (0, 100), default p99.
        rel_half_width: converged when the CI half-width is at most this
            fraction of the estimate.
        confidence: two-sided confidence level of the order-statistics CI.
        min_count: never converge before this many observations.
        check_every: how many sessions the runner executes between checks
            (batch size of the convergence loop).
    """

    quantile: float = 99.0
    rel_half_width: float = 0.05
    confidence: float = 0.95
    min_count: int = 256
    check_every: int = 128

    def __post_init__(self) -> None:
        if not 0 < self.quantile < 100:
            raise ValueError(
                f"quantile must be in (0, 100), got {self.quantile}"
            )
        if self.rel_half_width <= 0:
            raise ValueError(
                f"rel_half_width must be > 0, got {self.rel_half_width}"
            )
        if not 0 < self.confidence < 1:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.min_count < 2:
            raise ValueError(f"min_count must be >= 2, got {self.min_count}")
        if self.check_every < 1:
            raise ValueError(
                f"check_every must be >= 1, got {self.check_every}"
            )

    def z_value(self) -> float:
        """Two-sided normal critical value for ``confidence``."""
        return statistics.NormalDist().inv_cdf(0.5 + self.confidence / 2.0)


@dataclass(frozen=True, slots=True)
class ConvergenceState:
    """One convergence check's outcome (:meth:`ConvergenceDetector.state`)."""

    converged: bool
    count: int
    estimate: float
    ci_lower: float
    ci_upper: float
    half_width: float
    target_half_width: float

    def row(self) -> dict[str, Any]:
        return {
            "converged": self.converged,
            "count": self.count,
            "estimate": self.estimate,
            "ci_lower": self.ci_lower,
            "ci_upper": self.ci_upper,
            "half_width": self.half_width,
            "target_half_width": self.target_half_width,
        }


class ConvergenceDetector:
    """Checks a criterion against exact ``value -> count`` tables.

    The detector keeps no observations: :meth:`state` reads the table it
    is given (the fleet runner passes its aggregator's startup-delay
    table).  Deterministic: no RNG.
    """

    __slots__ = ("criterion", "_z")

    def __init__(self, criterion: ConvergenceCriterion | None = None) -> None:
        self.criterion = criterion if criterion is not None else ConvergenceCriterion()
        self._z = self.criterion.z_value()

    def state(self, counts: Mapping[V, int]) -> ConvergenceState:
        """Evaluate the criterion against the observations ``counts``
        tallies (each value ``counts[value]`` times)."""
        crit = self.criterion
        n = sum(counts.values())
        if n < 2:
            return ConvergenceState(
                converged=False, count=n, estimate=0.0,
                ci_lower=0.0, ci_upper=0.0,
                half_width=math.inf, target_half_width=0.0,
            )
        q = crit.quantile / 100.0
        estimate = pooled_percentile(counts, crit.quantile)
        se = self._z * math.sqrt(n * q * (1.0 - q))
        lower_rank = max(1, math.floor(n * q - se))
        upper_rank = min(n, math.ceil(n * q + se))
        ci_lower = value_at_rank(counts, lower_rank)
        ci_upper = value_at_rank(counts, upper_rank)
        half_width = (ci_upper - ci_lower) / 2.0
        target = crit.rel_half_width * estimate
        converged = n >= crit.min_count and half_width <= target
        return ConvergenceState(
            converged=converged, count=n, estimate=estimate,
            ci_lower=ci_lower, ci_upper=ci_upper,
            half_width=half_width, target_half_width=target,
        )
