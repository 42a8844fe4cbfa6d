"""Tests for online SLO-convergence detection (repro.obs.convergence)."""

from __future__ import annotations

import math
import random

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
    def test_empty_is_not_converged(self):
        detector = ConvergenceDetector()
        state = detector.state()
        assert not state.converged
        assert state.count == 0
        assert not detector.converged

    def test_degenerate_distribution_converges_at_min_count(self):
        crit = ConvergenceCriterion(min_count=16, check_every=4)
        detector = ConvergenceDetector(crit)
        for _ in range(15):
            detector.add(7.0)
        assert not detector.state().converged  # below min_count
        detector.add(7.0)
        state = detector.state()
        assert state.converged
        assert state.count == 16
        assert state.half_width == 0.0
        assert state.estimate == 7.0

    def test_wide_distribution_stays_unconverged(self):
        crit = ConvergenceCriterion(
            quantile=99.0, rel_half_width=0.01, min_count=8
        )
        detector = ConvergenceDetector(crit)
        rng = random.Random(5)
        for _ in range(64):
            detector.add(rng.uniform(1, 10_000))
        state = detector.state()
        assert not state.converged
        assert state.half_width > state.target_half_width

    def test_converges_eventually_on_concentrated_stream(self):
        crit = ConvergenceCriterion(
            quantile=90.0, rel_half_width=0.05, min_count=64, check_every=32
        )
        detector = ConvergenceDetector(crit)
        rng = random.Random(11)
        added = 0
        while not detector.state().converged:
            for _ in range(crit.check_every):
                detector.add(100 + rng.uniform(-2, 2))
            added += crit.check_every
            assert added <= 10_000, "never converged on a tight distribution"
        state = detector.state()
        assert state.ci_lower <= state.estimate <= state.ci_upper
        assert state.half_width <= state.target_half_width

    def test_deterministic_same_stream_same_convergence_count(self):
        crit = ConvergenceCriterion(min_count=32, check_every=16)

        def converge_at() -> int:
            detector = ConvergenceDetector(crit)
            rng = random.Random(3)
            n = 0
            while not detector.state().converged:
                detector.add(50 + rng.uniform(0, 1))
                n += 1
            return n

        assert converge_at() == converge_at()

    def test_merge_shard_sketch(self):
        # A shard's observations fold in as one weighted add.
        crit = ConvergenceCriterion(min_count=8)
        detector = ConvergenceDetector(crit)
        detector.add(3, 10)
        assert detector.count == 10
        assert detector.state().converged

    @pytest.mark.parametrize("count", [0, -1])
    def test_add_rejects_non_positive_count(self, count):
        detector = ConvergenceDetector()
        with pytest.raises(ValueError):
            detector.add(3, count)
        assert detector.count == 0

    def test_bounds_are_exact_order_statistics(self):
        crit = ConvergenceCriterion(quantile=90.0, min_count=2)
        detector = ConvergenceDetector(crit)
        values = list(range(100))
        for value in values:
            detector.add(value)
        state = detector.state()
        # n=100, q=0.9: rank 90 for the estimate, ranks floor/ceil of
        # 90 -/+ z*sqrt(100 * 0.9 * 0.1) for the bounds; all exact ints.
        spread = crit.z_value() * 3
        assert state.estimate == values[90 - 1]
        assert state.ci_lower == values[math.floor(90 - spread) - 1]
        assert state.ci_upper == values[math.ceil(90 + spread) - 1]
        assert isinstance(state.estimate, int)

    def test_state_row_is_flat(self):
        detector = ConvergenceDetector(ConvergenceCriterion(min_count=2))
        detector.add(1)
        detector.add(1)
        row = detector.state().row()
        assert set(row) == {
            "converged", "count", "estimate", "ci_lower", "ci_upper",
            "half_width", "target_half_width",
        }
        assert row["converged"] is True
        assert row["count"] == 2
