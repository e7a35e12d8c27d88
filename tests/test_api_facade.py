"""The ``repro.solve()`` front door: one call per model, typed configs, batches.

``solve(problem, model=m, ...)``, ``solve_many`` and ``compare_models`` are
checked here for config coercion, dropped-field warnings, the batch seed
derivation, and the baselines' reachability.  The module-level instances,
``FAST`` profile and helpers are shared with other suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import compare_models, solve, solve_many
from repro.problems import ConvexQuadraticProgram, MinimumEnclosingBall
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

from tests.conftest import assert_objective_close

SEED = 0
FAST = dict(sample_size=400, success_threshold=0.02, max_iterations=500)


def _lp_instance():
    return random_polytope_lp(1000, 2, seed=41).problem


def _meb_instance():
    return MinimumEnclosingBall(points=uniform_ball_points(1000, 2, radius=2.0, seed=42))


def _svm_instance():
    data = make_separable_classification(900, 2, seed=43, margin=0.4)
    return svm_problem(data)


def _qp_instance():
    rng = np.random.default_rng(44)
    d = 2
    g = rng.normal(size=(900, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    h = g.sum(axis=1) * 5.0 - rng.uniform(0.5, 4.0, size=900)
    return ConvexQuadraticProgram(
        q_matrix=np.eye(d) * 2.0, q_vector=np.ones(d), g_matrix=g, h_vector=h
    )


PROBLEMS = {
    "lp": _lp_instance,
    "meb": _meb_instance,
    "svm": _svm_instance,
    "qp": _qp_instance,
}


FACADE_KWARGS = {
    "sequential": dict(),
    "streaming": dict(r=2),
    "coordinator": dict(r=2, num_sites=4),
    "mpc": dict(delta=0.5),
}


def _scalar(value):
    for attr in ("objective", "radius", "squared_norm"):
        if hasattr(value, attr):
            return float(getattr(value, attr))
    return float(value)


def _witness_vector(witness):
    """Flatten any witness (array, lexicographic point, Ball) for comparison."""
    if witness is None:
        return np.empty(0)
    if hasattr(witness, "center"):  # MEB Ball
        return np.concatenate(
            [np.asarray(witness.center, dtype=float).ravel(), [float(witness.radius)]]
        )
    return np.asarray(witness, dtype=float).ravel()


def assert_results_identical(result, expected):
    """Same optimum, same certificate, same resource semantics."""
    assert _scalar(result.value) == _scalar(expected.value)
    assert result.basis_indices == expected.basis_indices
    assert np.allclose(_witness_vector(result.witness), _witness_vector(expected.witness))
    assert result.iterations == expected.iterations
    assert result.successful_iterations == expected.successful_iterations
    assert result.resources == expected.resources
    assert result.metadata == expected.metadata


@pytest.mark.parametrize("model", sorted(FACADE_KWARGS))
def test_solve_many_single_instance_matches_solve(model):
    problem = _lp_instance()
    root_seed = 123
    batch = solve_many(
        [problem], model=model, root_seed=root_seed, **FAST, **FACADE_KWARGS[model]
    )
    assert len(batch) == 1
    # solve_many derives the instance seed as SeedSequence(root).spawn(1)[0];
    # a single solve fed the same child seed must agree exactly.
    child = np.random.SeedSequence(root_seed).spawn(1)[0]
    direct = solve(problem, model=model, seed=child, **FAST, **FACADE_KWARGS[model])
    assert_results_identical(batch[0], direct)


def test_compare_models_runs_the_four_theorem_models(medium_lp):
    results = compare_models(
        medium_lp, seed=SEED, num_sites=3, delta=0.5, **FAST
    )
    assert sorted(results) == ["coordinator", "mpc", "sequential", "streaming"]
    reference = results["sequential"]
    for name, result in results.items():
        assert_objective_close(result.value, reference.value)
    # each model reports costs in its own currency
    assert results["streaming"].resources.passes > 0
    assert results["coordinator"].resources.total_communication_bits > 0
    assert results["mpc"].resources.max_machine_load_bits > 0


def test_compare_models_with_explicit_model_list(medium_lp):
    results = compare_models(
        medium_lp,
        models=("exact", "streaming"),
        seed=SEED,
        **FAST,
    )
    assert sorted(results) == ["exact", "streaming"]
    assert_objective_close(results["exact"].value, results["streaming"].value)


def test_compare_models_rejects_key_unknown_to_all(medium_lp):
    from repro.core.exceptions import InvalidConfigError

    with pytest.raises(InvalidConfigError, match="bogus"):
        compare_models(medium_lp, models=("sequential", "streaming"), bogus=1)


def test_base_config_coerces_to_model_config(medium_lp):
    """One base SolverConfig seeds models with richer config classes."""
    from repro import SolverConfig

    base = SolverConfig(r=2, seed=SEED, **{k: v for k, v in FAST.items()})
    result = solve(medium_lp, model="coordinator", config=base, num_sites=3)
    direct = solve(medium_lp, model="coordinator", seed=SEED, num_sites=3, **FAST)
    assert_results_identical(result, direct)


def test_subclass_config_coerces_to_narrower_model_config(medium_lp):
    """A richer config seeds a model with a narrower config class: the
    subclass-only fields are dropped instead of raising (regression)."""
    from repro import StreamingConfig

    cfg = StreamingConfig(r=2, seed=SEED, **FAST)
    result = solve(medium_lp, model="sequential", config=cfg, max_iterations=400)
    direct = solve(medium_lp, model="sequential", seed=SEED, max_iterations=400,
                   **{k: v for k, v in FAST.items() if k != "max_iterations"})
    assert_results_identical(result, direct)
    results = compare_models(medium_lp, config=cfg, num_sites=3, delta=0.5)
    assert sorted(results) == ["coordinator", "mpc", "sequential", "streaming"]


def test_dropped_config_fields_warn_by_name(medium_lp):
    """Seeding a narrower config from a richer one no longer drops fields
    silently: a ConfigFieldDroppedWarning names every non-default field the
    target class cannot carry over (regression: ISSUE 5 satellite)."""
    from repro import StreamingConfig
    from repro.core.exceptions import ConfigFieldDroppedWarning

    order = list(range(medium_lp.num_constraints))
    cfg = StreamingConfig(r=2, seed=SEED, order=order, **FAST)
    with pytest.warns(ConfigFieldDroppedWarning, match="'order'"):
        result = solve(medium_lp, model="sequential", config=cfg)
    assert result.basis_indices  # the solve itself still runs


def test_default_valued_fields_drop_without_warning(medium_lp, recwarn):
    """Carrying a richer config whose extra fields are all defaults stays
    silent — only genuinely-set fields are worth warning about."""
    import warnings as _warnings

    from repro import StreamingConfig
    from repro.core.exceptions import ConfigFieldDroppedWarning

    cfg = StreamingConfig(r=2, seed=SEED, **FAST)
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", ConfigFieldDroppedWarning)
        solve(medium_lp, model="sequential", config=cfg)


def test_compare_models_suppresses_drop_warnings(medium_lp):
    """Cross-model seeding is compare_models' documented contract, so the
    drop warning stays quiet there."""
    import warnings as _warnings

    from repro import CoordinatorConfig
    from repro.core.exceptions import ConfigFieldDroppedWarning

    cfg = CoordinatorConfig(r=2, seed=SEED, num_sites=3, **FAST)
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", ConfigFieldDroppedWarning)
        results = compare_models(
            medium_lp, models=("sequential", "streaming"), config=cfg
        )
    assert sorted(results) == ["sequential", "streaming"]


def test_baseline_models_reachable_from_facade(medium_lp):
    exact = solve(medium_lp, model="exact")
    ship = solve(medium_lp, model="ship_all_coordinator", num_sites=4)
    single = solve(medium_lp, model="single_pass_streaming")
    assert_objective_close(exact.value, ship.value)
    assert_objective_close(exact.value, single.value)
    assert ship.resources.total_communication_bits > 0
    assert single.resources.passes == 1
    classic = solve(medium_lp, model="classic_reweighting", seed=SEED, **FAST)
    assert classic.metadata["algorithm"] == "clarkson_classic_reweighting"
    assert classic.metadata["boost"] == 2.0  # the baseline's defining knob
    assert_objective_close(exact.value, classic.value)
