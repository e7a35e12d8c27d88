"""Cross-model agreement: all four drivers agree on shared seeded instances.

The paper's point is that ONE meta-algorithm instantiates in every model;
these tests pin that down operationally: the sequential, streaming,
coordinator, and MPC drivers must return the same optimum value (within
tolerance) and a witness feasible for the reported basis on the same LP /
MEB / SVM / QP instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.problems import ConvexQuadraticProgram, MinimumEnclosingBall
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

from tests.conftest import fast_config


def _lp_instance():
    return random_polytope_lp(1400, 2, seed=31).problem


def _meb_instance():
    return MinimumEnclosingBall(points=uniform_ball_points(1400, 2, radius=2.5, seed=32))


def _svm_instance():
    data = make_separable_classification(1200, 2, seed=33, margin=0.4)
    return svm_problem(data)


def _qp_instance():
    # A strictly convex QP whose constraints are random halfspaces around a
    # shifted quadratic bowl (feasible by construction: x = 5 * ones works).
    rng = np.random.default_rng(34)
    d = 2
    g = rng.normal(size=(1200, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    h = g.sum(axis=1) * 5.0 - rng.uniform(0.5, 4.0, size=1200)
    return ConvexQuadraticProgram(
        q_matrix=np.eye(d) * 2.0, q_vector=np.ones(d), g_matrix=g, h_vector=h
    )


def _scalar(value):
    for attr in ("objective", "radius", "squared_norm"):
        if hasattr(value, attr):
            return float(getattr(value, attr))
    return float(value)


@pytest.mark.parametrize(
    "make_problem", [_lp_instance, _meb_instance, _svm_instance, _qp_instance],
    ids=["lp", "meb", "svm", "qp"],
)
def test_all_four_models_agree(make_problem):
    problem = make_problem()
    config = fast_config(sample_size=350)
    exact = _scalar(problem.solve().value)

    results = {
        "sequential": solve(problem, model="sequential", config=config, seed=1),
        "streaming": solve(problem, model="streaming", config=config, seed=2),
        "coordinator": solve(problem, model="coordinator", config=config, num_sites=4, seed=3),
        "mpc": solve(problem, model="mpc", config=config, delta=0.5, num_machines=8, seed=4),
    }

    for name, result in results.items():
        value = _scalar(result.value)
        assert value == pytest.approx(exact, rel=1e-3, abs=1e-6), (name, value, exact)
        # The reported basis must certify the value: re-solving the basis
        # alone reproduces the optimum.
        basis_value = _scalar(problem.solve_subset(result.basis_indices).value)
        assert basis_value == pytest.approx(value, rel=1e-3, abs=1e-6), name
        # The witness must satisfy every basis constraint.
        assert problem.violating_indices(
            result.witness, np.asarray(result.basis_indices, dtype=int)
        ).size == 0, name


@pytest.mark.parametrize(
    "make_problem", [_lp_instance, _meb_instance], ids=["lp", "meb"]
)
def test_engine_metadata_consistent_across_models(make_problem):
    """All drivers resolve the same sampling regime for the same parameters."""
    problem = make_problem()
    config = fast_config(sample_size=350)
    seq = solve(problem, model="sequential", config=config, seed=1)
    stream = solve(problem, model="streaming", config=config, seed=2)
    coord = solve(problem, model="coordinator", config=config, num_sites=4, seed=3)
    mpc = solve(problem, model="mpc", config=config, delta=0.5, num_machines=8, seed=4)
    sizes = {r.metadata["sample_size"] for r in (seq, stream, coord, mpc)}
    epsilons = {r.metadata["epsilon"] for r in (seq, stream, coord, mpc)}
    boosts = {r.metadata["boost"] for r in (seq, stream, coord, mpc)}
    assert len(sizes) == 1 and len(epsilons) == 1 and len(boosts) == 1
