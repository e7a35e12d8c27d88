"""Repeat determinism: one seed gives one result.

A run keeps no state between calls, so repeated ``solve()`` calls with the
same config and seed are bit-identical, also when the ``solve_many`` thread
pool runs the instances side by side.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolverConfig, solve, solve_many
from repro.problems.meb import MinimumEnclosingBall
from repro.workloads import random_polytope_lp, uniform_ball_points


def _problems():
    return {
        "lp": random_polytope_lp(3000, 2, seed=5).problem,
        "meb": MinimumEnclosingBall(uniform_ball_points(3000, 2, seed=6)),
    }


def _config(problem, **overrides):
    return SolverConfig.practical(problem, r=2, seed=123, **overrides)


def _assert_identical(first, second):
    assert first.value == second.value
    assert first.basis_indices == second.basis_indices
    assert first.iterations == second.iterations
    assert first.successful_iterations == second.successful_iterations
    first_w = getattr(first.witness, "center", first.witness)
    second_w = getattr(second.witness, "center", second.witness)
    np.testing.assert_array_equal(np.asarray(first_w), np.asarray(second_w))


@pytest.mark.parametrize("model", ["sequential", "streaming", "coordinator", "mpc"])
@pytest.mark.parametrize("family", ["lp", "meb"])
def test_repeated_solve_bit_identical(model, family):
    """No cross-call state leakage: same config + seed => identical results."""
    problem = _problems()[family]
    config = _config(problem)
    first = solve(problem, model=model, config=config)
    second = solve(problem, model=model, config=config)
    _assert_identical(first, second)


@pytest.mark.parametrize("model", ["sequential", "streaming"])
def test_solve_many_workers_bit_identical(model):
    """The thread pool must not leak RNG or run state across instances."""
    problems = [random_polytope_lp(2000, 2, seed=s).problem for s in (1, 2, 3, 4)]
    serial = solve_many(problems, model=model, seed=7, max_workers=1)
    threaded = solve_many(problems, model=model, seed=7, max_workers=4)
    for first, second in zip(serial, threaded):
        _assert_identical(first, second)
