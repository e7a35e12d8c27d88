"""Unit tests for the explicit and implicit (basis-derived) weights."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.weights import ExplicitWeights, boost_factor
from repro.workloads import random_polytope_lp


class TestBoostFactor:
    def test_value(self):
        assert boost_factor(10_000, 2) == pytest.approx(100.0)

    def test_r_one_is_n(self):
        assert boost_factor(500, 1) == pytest.approx(500.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            boost_factor(0, 2)
        with pytest.raises(ValueError):
            boost_factor(10, 0)


class TestExplicitWeights:
    def test_uniform_start(self):
        weights = ExplicitWeights.uniform(5, boost=10.0)
        assert len(weights) == 5
        assert np.allclose(weights.weights(), 1.0)

    def test_multiply_boosts_selected(self):
        weights = ExplicitWeights.uniform(4, boost=10.0)
        weights.multiply([1, 3])
        w = weights.weights()
        assert w[1] == pytest.approx(1.0)  # normalised to max
        assert w[0] == pytest.approx(0.1)
        assert w[3] == pytest.approx(1.0)

    def test_multiply_empty_noop(self):
        weights = ExplicitWeights.uniform(3, boost=2.0)
        weights.multiply([])
        assert np.allclose(weights.weights(), 1.0)

    def test_total_weight_log(self):
        weights = ExplicitWeights.uniform(4, boost=np.e)
        assert weights.total_weight_log() == pytest.approx(np.log(4.0))
        weights.multiply([0])
        assert weights.total_weight_log() == pytest.approx(np.log(3.0 + np.e))

    def test_no_overflow_with_many_boosts(self):
        weights = ExplicitWeights.uniform(10, boost=1e6)
        for _ in range(100):
            weights.multiply([0])
        w = weights.weights()
        assert np.isfinite(w).all()
        assert w[0] == pytest.approx(1.0)
        assert w[0] / w.sum() == pytest.approx(1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ExplicitWeights.uniform(0, boost=2.0)
        with pytest.raises(ValueError):
            ExplicitWeights.uniform(3, boost=1.0)


class TestImplicitWeights:
    def test_matches_explicit_weights(self):
        """Section 3.2: boosting the violators of each stored basis gives the
        weights ``boost ** #violated-stored-bases`` that the streaming reader
        and the MPC machines recompute from the stored witnesses."""
        problem = random_polytope_lp(600, 2, seed=4).problem
        boost = 7.0
        witnesses = [
            problem.solve_subset(np.arange(k, k + 40)).witness for k in (0, 200, 400)
        ]
        explicit = ExplicitWeights.uniform(problem.num_constraints, boost)
        for witness in witnesses:
            explicit.multiply(
                np.flatnonzero(problem.violation_mask(witness, problem.all_indices()))
            )
        exponents = problem.violation_count_matrix(witnesses, problem.all_indices())
        assert exponents.max() >= 2  # the boosts overlap
        implicit = ExplicitWeights.from_exponents(exponents, boost)
        np.testing.assert_allclose(implicit.log_weights, explicit.log_weights)
