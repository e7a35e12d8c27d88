"""End-to-end scenarios: all models agree, and the ML workloads of the paper's intro run."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.algorithms import exact_in_memory
from repro.lower_bounds import (
    interactive_tci_protocol,
    sample_hard_instance,
    tci_to_linear_program,
)
from repro.lower_bounds.tci import lp_optimum_to_index
from repro.workloads import (
    chebyshev_regression_lp,
    make_regression_data,
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
)

from tests.conftest import assert_objective_close, fast_config


class TestAllModelsAgree:
    """The sequential, streaming, coordinator and MPC drivers all find the same optimum."""

    @pytest.mark.parametrize("seed", range(2))
    def test_linear_program(self, seed):
        instance = random_polytope_lp(1600, 2, seed=seed)
        exact = exact_in_memory(instance.problem)
        config = fast_config(sample_size=350)
        results = [
            solve(instance.problem, model="sequential", config=config, seed=seed),
            solve(instance.problem, model="streaming", config=config, seed=seed),
            solve(instance.problem, model="coordinator", config=config, num_sites=4, seed=seed),
            solve(
                instance.problem, model="mpc", config=config, delta=0.5, num_machines=8, seed=seed
            ),
        ]
        for result in results:
            assert_objective_close(result.value, exact.value)

    def test_chebyshev_regression_across_models(self):
        data = make_regression_data(700, 2, seed=3, noise_scale=0.1)
        lp = chebyshev_regression_lp(data)
        exact = exact_in_memory(lp)
        config = fast_config(sample_size=500)
        stream = solve(lp, model="streaming", config=config, seed=1)
        coord = solve(lp, model="coordinator", config=config, num_sites=4, seed=1)
        assert_objective_close(stream.value, exact.value)
        assert_objective_close(coord.value, exact.value)
        # The recovered max-residual is no larger than the noise level.
        assert stream.value.objective <= 0.1 + 1e-6

    def test_svm_across_models(self):
        data = make_separable_classification(900, 2, seed=4, margin=0.5)
        problem = svm_problem(data)
        exact = exact_in_memory(problem)
        config = fast_config(sample_size=250)
        stream = solve(problem, model="streaming", config=config, seed=2)
        coord = solve(problem, model="coordinator", config=config, num_sites=3, seed=2)
        assert stream.value.squared_norm == pytest.approx(
            exact.value.squared_norm, rel=1e-3
        )
        assert coord.value.squared_norm == pytest.approx(
            exact.value.squared_norm, rel=1e-3
        )
        # The resulting classifier separates the training data perfectly.
        predictions = problem.classify(stream.witness, data.points)
        assert np.all(predictions == data.labels)


class TestLowerBoundPipeline:
    """Hard TCI instances flow through the LP reduction and the upper-bound algorithms."""

    def test_hard_instance_solved_by_streaming_lp(self):
        hard = sample_hard_instance(branching=6, rounds=2, seed=5)  # n = 36 points
        lp = tci_to_linear_program(hard.instance)
        result = solve(lp, model="streaming", r=2, seed=3)
        decoded = lp_optimum_to_index(result.witness[0], hard.instance.length)
        assert decoded == hard.answer

    def test_hard_instance_solved_by_coordinator_lp(self):
        hard = sample_hard_instance(branching=6, rounds=2, seed=6)
        lp = tci_to_linear_program(hard.instance)
        result = solve(lp, model="coordinator", num_sites=2, r=2, seed=4)
        decoded = lp_optimum_to_index(result.witness[0], hard.instance.length)
        assert decoded == hard.answer

    def test_protocol_and_reduction_agree(self):
        hard = sample_hard_instance(branching=5, rounds=3, seed=7)
        protocol = interactive_tci_protocol(hard.instance, rounds=3)
        lp = tci_to_linear_program(hard.instance)
        decoded = lp_optimum_to_index(lp.solve().witness[0], hard.instance.length)
        assert protocol.answer == decoded == hard.answer


class TestResultSummaries:
    def test_summary_contains_model_costs(self):
        instance = random_polytope_lp(1500, 2, seed=8)
        result = solve(
            instance.problem, model="streaming", config=fast_config(), seed=5
        )
        summary = result.summary()
        assert summary["passes"] == result.resources.passes
        assert summary["space_peak_items"] == result.resources.space_peak_items
        assert "meta_algorithm" in summary
