"""Integration tests for the coordinator-model implementation (Theorem 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.algorithms import ship_all_coordinator
from repro.core.accounting import BitCostModel
from repro.fabric.topology import partition_indices
from repro.problems import MinimumEnclosingBall
from repro.workloads import (
    make_separable_classification,
    random_feasible_lp,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

from tests.conftest import assert_objective_close, fast_config


class TestCorrectness:
    @pytest.mark.parametrize("num_sites", [2, 4, 8])
    def test_matches_exact_optimum(self, num_sites):
        instance = random_polytope_lp(1500, 2, seed=num_sites)
        exact = instance.problem.solve()
        result = solve(
            instance.problem, model="coordinator", config=fast_config(), num_sites=num_sites, seed=1
        )
        assert_objective_close(result.value, exact.value)
        assert result.resources.machine_count == num_sites

    @pytest.mark.parametrize("method", ["random", "skewed", "contiguous"])
    def test_partition_insensitive(self, method):
        instance = random_polytope_lp(1500, 2, seed=20)
        exact = instance.problem.solve()
        partition = partition_indices(1500, 5, method=method, seed=3)
        result = solve(
            instance.problem, model="coordinator", config=fast_config(), partition=partition, seed=2
        )
        assert_objective_close(result.value, exact.value)

    def test_svm(self):
        data = make_separable_classification(1000, 2, seed=4, margin=0.4)
        problem = svm_problem(data)
        exact = problem.solve()
        result = solve(
            problem, model="coordinator", config=fast_config(sample_size=250), num_sites=4, seed=3
        )
        assert result.value.squared_norm == pytest.approx(exact.value.squared_norm, rel=1e-3)

    def test_meb(self):
        points = uniform_ball_points(1200, 2, radius=2.0, seed=5)
        problem = MinimumEnclosingBall(points=points)
        exact = problem.solve()
        result = solve(
            problem, model="coordinator", config=fast_config(sample_size=250), num_sites=4, seed=4
        )
        assert result.value.radius == pytest.approx(exact.value.radius, rel=1e-3)

    def test_matches_ship_all_baseline(self):
        instance = random_feasible_lp(800, 3, seed=6)
        baseline = ship_all_coordinator(instance.problem, num_sites=4)
        result = solve(
            instance.problem,
            model="coordinator",
            config=fast_config(sample_size=400),
            num_sites=4,
            seed=5,
        )
        assert_objective_close(result.value, baseline.value)


class TestResourceAccounting:
    def test_three_rounds_per_iteration(self):
        instance = random_polytope_lp(1500, 2, seed=7)
        result = solve(
            instance.problem, model="coordinator", config=fast_config(), num_sites=4, seed=6
        )
        assert result.resources.rounds == 3 * result.iterations

    def test_round_count_within_theorem_bound(self):
        instance = random_polytope_lp(2000, 2, seed=8)
        result = solve(
            instance.problem,
            model="coordinator",
            config=fast_config(sample_size=400),
            num_sites=4,
            seed=7,
        )
        nu, r = 3, 2
        assert result.resources.rounds <= 12 * nu * r

    def test_communication_is_sublinear_vs_ship_all(self):
        instance = random_polytope_lp(4000, 2, seed=9)
        ship_all = ship_all_coordinator(instance.problem, num_sites=4)
        clever = solve(
            instance.problem,
            model="coordinator",
            config=fast_config(sample_size=250),
            num_sites=4,
            seed=8,
        )
        assert (
            clever.resources.total_communication_bits
            < ship_all.resources.total_communication_bits
        )

    def test_custom_cost_model(self):
        instance = random_polytope_lp(1200, 2, seed=10)
        cheap = solve(
            instance.problem,
            model="coordinator",
            config=fast_config(),
            num_sites=3,
            cost_model=BitCostModel(bits_per_coefficient=8, bits_per_counter=8),
            seed=9,
        )
        expensive = solve(
            instance.problem,
            model="coordinator",
            config=fast_config(),
            num_sites=3,
            cost_model=BitCostModel(bits_per_coefficient=128, bits_per_counter=64),
            seed=9,
        )
        assert (
            cheap.resources.total_communication_bits
            < expensive.resources.total_communication_bits
        )

    def test_small_problem_ships_everything_in_one_round(self):
        problem = random_feasible_lp(60, 2, seed=11).problem
        result = solve(problem, model="coordinator", num_sites=3, r=2, seed=10)
        assert result.resources.rounds == 1

    def test_empty_site_is_handled(self):
        instance = random_polytope_lp(1200, 2, seed=12)
        partition = partition_indices(1200, 3, method="round_robin")
        partition.append(np.array([], dtype=int))  # a fourth, empty site
        exact = instance.problem.solve()
        result = solve(
            instance.problem,
            model="coordinator",
            config=fast_config(),
            partition=partition,
            seed=11,
        )
        assert_objective_close(result.value, exact.value)

    def test_metadata(self):
        instance = random_polytope_lp(1200, 2, seed=13)
        result = solve(
            instance.problem, model="coordinator", config=fast_config(r=3), num_sites=6, seed=12
        )
        assert result.metadata["algorithm"] == "coordinator_clarkson"
        assert result.metadata["k"] == 6
        assert result.metadata["r"] == 3
