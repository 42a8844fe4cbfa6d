"""Tests for online SLO-convergence detection (repro.obs.convergence)."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.obs.convergence import ConvergenceCriterion, ConvergenceDetector


class TestCriterionValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quantile": 0},
            {"quantile": 100},
            {"rel_half_width": 0},
            {"confidence": 0},
            {"confidence": 1},
            {"min_count": 1},
            {"check_every": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ConvergenceCriterion(**kwargs)

    def test_defaults(self):
        crit = ConvergenceCriterion()
        assert crit.quantile == 99.0
        assert crit.min_count == 256
        assert crit.check_every == 128

    def test_z_value_matches_normal_quantile(self):
        assert ConvergenceCriterion(confidence=0.95).z_value() == pytest.approx(
            1.959964, abs=1e-4
        )
        assert ConvergenceCriterion(confidence=0.99).z_value() == pytest.approx(
            2.575829, abs=1e-4
        )


class TestDetector:
    """The detector reads the ``value -> count`` table it is given."""

    def test_empty_is_not_converged(self):
        state = ConvergenceDetector().state(Counter())
        assert not state.converged
        assert state.count == 0

    def test_degenerate_distribution_converges_at_min_count(self):
        crit = ConvergenceCriterion(min_count=16, check_every=4)
        detector = ConvergenceDetector(crit)
        assert not detector.state({7.0: 15}).converged  # below min_count
        state = detector.state({7.0: 16})
        assert state.converged
        assert state.count == 16
        assert state.half_width == 0.0
        assert state.estimate == 7.0

    def test_wide_distribution_stays_unconverged(self):
        crit = ConvergenceCriterion(
            quantile=99.0, rel_half_width=0.01, min_count=8
        )
        rng = random.Random(5)
        table = Counter(rng.uniform(1, 10_000) for _ in range(64))
        state = ConvergenceDetector(crit).state(table)
        assert not state.converged
        assert state.half_width > state.target_half_width

    def test_converges_eventually_on_concentrated_stream(self):
        crit = ConvergenceCriterion(
            quantile=90.0, rel_half_width=0.05, min_count=64, check_every=32
        )
        detector = ConvergenceDetector(crit)
        rng = random.Random(11)
        table: Counter[float] = Counter()
        added = 0
        while not detector.state(table).converged:
            table.update(100 + rng.uniform(-2, 2) for _ in range(crit.check_every))
            added += crit.check_every
            assert added <= 10_000, "never converged on a tight distribution"
        state = detector.state(table)
        assert state.ci_lower <= state.estimate <= state.ci_upper
        assert state.half_width <= state.target_half_width

    def test_deterministic_same_stream_same_convergence_count(self):
        crit = ConvergenceCriterion(min_count=32, check_every=16)

        def converge_at() -> int:
            detector = ConvergenceDetector(crit)
            rng = random.Random(3)
            table: Counter[float] = Counter()
            n = 0
            while not detector.state(table).converged:
                table[50 + rng.uniform(0, 1)] += 1
                n += 1
            return n

        assert converge_at() == converge_at()

    def test_merge_shard_sketch(self):
        # A shard's observations arrive as one weighted table entry.
        crit = ConvergenceCriterion(min_count=8)
        state = ConvergenceDetector(crit).state({3: 10})
        assert state.count == 10
        assert state.converged

    def test_bounds_are_exact_order_statistics(self):
        crit = ConvergenceCriterion(quantile=90.0, min_count=2)
        values = list(range(100))
        state = ConvergenceDetector(crit).state(Counter(values))
        # n=100, q=0.9: rank 90 for the estimate, ranks floor/ceil of
        # 90 -/+ z*sqrt(100 * 0.9 * 0.1) for the bounds; all exact ints.
        spread = crit.z_value() * 3
        assert state.estimate == values[90 - 1]
        assert state.ci_lower == values[math.floor(90 - spread) - 1]
        assert state.ci_upper == values[math.ceil(90 + spread) - 1]
        assert isinstance(state.estimate, int)

    def test_state_row_is_flat(self):
        detector = ConvergenceDetector(ConvergenceCriterion(min_count=2))
        row = detector.state({1: 2}).row()
        assert set(row) == {
            "converged", "count", "estimate", "ci_lower", "ci_upper",
            "half_width", "target_half_width",
        }
        assert row["converged"] is True
        assert row["count"] == 2

    def test_detector_keeps_no_table(self):
        detector = ConvergenceDetector()
        assert not hasattr(detector, "add")
        table = Counter({5: 300})
        assert detector.state(table) == detector.state(table)
        assert table == Counter({5: 300})
