"""Unit tests for the model-agnostic Clarkson engine and its models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import SolverConfig, solve
from repro.core.clarkson import SequentialModel
from repro.core.engine import ClarksonEngine, EngineConfig, iteration_budget
from repro.core.exceptions import InvalidConfigError, IterationLimitError
from repro.workloads import random_polytope_lp

from tests.conftest import ScriptedModel, assert_objective_close


def _make_engine(problem, script, budget=10, epsilon=0.1, keep_trace=True):
    model = ScriptedModel(problem, script)
    engine = ClarksonEngine(
        model,
        EngineConfig(
            sample_size=5, epsilon=epsilon, budget=budget, keep_trace=keep_trace,
            name="scripted",
        ),
    )
    return engine, model


@pytest.fixture(scope="module")
def lp_problem():
    return random_polytope_lp(1200, 2, seed=21).problem


class TestEngineLoop:
    def test_terminates_on_empty_violator_set(self, lp_problem):
        engine, model = _make_engine(lp_problem, [(3, 0.5), (0, 0.0)])
        outcome = engine.run()
        assert outcome.iterations == 2
        assert outcome.successful_iterations == 0
        assert model.boosts == 0

    def test_boost_only_on_success(self, lp_problem):
        # Iter 0: fail (fraction > eps). Iter 1: success. Iter 2: terminate.
        engine, model = _make_engine(lp_problem, [(5, 0.9), (4, 0.05), (0, 0.0)])
        outcome = engine.run()
        assert model.boosts == 1
        assert outcome.successful_iterations == 1
        assert [rec.successful for rec in outcome.trace] == [False, True, True]

    def test_trace_records_iteration_story(self, lp_problem):
        engine, _ = _make_engine(lp_problem, [(7, 0.04), (0, 0.0)])
        outcome = engine.run()
        assert len(outcome.trace) == outcome.iterations == 2
        assert outcome.trace[0].num_violators == 7
        assert outcome.trace[0].violator_weight_fraction == pytest.approx(0.04)
        assert outcome.trace[-1].num_violators == 0
        assert all(rec.sample_size == 5 for rec in outcome.trace)

    def test_keep_trace_disabled(self, lp_problem):
        engine, _ = _make_engine(lp_problem, [(3, 0.05), (0, 0.0)], keep_trace=False)
        outcome = engine.run()
        assert outcome.trace == []
        assert outcome.iterations == 2

    def test_budget_exhaustion_raises(self, lp_problem):
        engine, _ = _make_engine(lp_problem, [(5, 0.9)] * 4, budget=4)
        with pytest.raises(IterationLimitError):
            engine.run()


class TestIterationBudget:
    def test_explicit_budget_wins(self, lp_problem):
        assert iteration_budget(lp_problem, r=2, max_iterations=7) == 7

    def test_default_is_lemma_bound(self, lp_problem):
        nu = lp_problem.combinatorial_dimension
        assert iteration_budget(lp_problem, r=3, max_iterations=None) == 40 * nu * 3 + 40

    @pytest.mark.parametrize("bad", [0, -1, -40])
    def test_non_positive_budget_raises(self, lp_problem, bad):
        """0 / negative budgets used to fall through to the default silently."""
        with pytest.raises(InvalidConfigError, match="max_iterations"):
            iteration_budget(lp_problem, r=2, max_iterations=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_solver_config_rejects_non_positive_budget(self, bad):
        with pytest.raises(InvalidConfigError, match="max_iterations"):
            SolverConfig(max_iterations=bad)


class TestInMemoryBinding:
    def test_solves_lp_through_raw_engine(self, lp_problem):
        model = SequentialModel(lp_problem, SolverConfig(seed=5), None)
        model.install(40.0, "numpy")
        engine = ClarksonEngine(
            model,
            EngineConfig(sample_size=400, epsilon=0.02, budget=500, name="in-memory"),
        )
        outcome = engine.run()
        assert_objective_close(outcome.basis.value, lp_problem.solve().value)
        assert model.peak_items > 0
        assert model.oracle_calls == outcome.iterations

    def test_peak_tracks_sample_plus_bases(self, lp_problem):
        model = SequentialModel(lp_problem, SolverConfig(seed=5), None)
        model.install(40.0, "numpy")
        basis = lp_problem.solve_subset(np.arange(40))
        model.measure(np.arange(40), basis)
        nu = lp_problem.combinatorial_dimension
        assert model.peak_items == 40 + nu


#: ``resources.oracle_calls`` of a cold engine run, per model: the
#: sequential sweep once per iteration; the stream reader's three passes over
#: ``ceil(n / 8192)`` chunks (one sampling pass, the verification pass
#: counted twice); one violation round over the ``k`` sites; and on the
#: ``k`` MPC machines one statistics sweep per iteration plus one
#: implicit-weight sweep per weight version (the cold start and each boost).
ORACLE_CALLS = {
    "sequential": lambda n, k, it, ok: it,
    "streaming": lambda n, k, it, ok: 3 * math.ceil(n / 8192) * it,
    "coordinator": lambda n, k, it, ok: k * it,
    "mpc": lambda n, k, it, ok: k * (it + 1 + ok),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "model, overrides",
    [
        ("sequential", {}),
        ("streaming", {}),
        ("coordinator", {"num_sites": 4}),
        ("mpc", {"delta": 0.5, "num_machines": 8}),
    ],
)
def test_oracle_calls_per_model(model, overrides, seed):
    n = 20_000
    problem = random_polytope_lp(n, 3, seed=seed).problem
    config = SolverConfig.practical(problem, r=2)
    result = solve(problem, model=model, config=config, seed=seed, **overrides)
    assert result.iterations >= 2  # an engine run, not a direct solve
    expected = ORACLE_CALLS[model](
        n, result.metadata.get("k"), result.iterations, result.successful_iterations
    )
    assert result.resources.oracle_calls == expected
