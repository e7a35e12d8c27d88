"""Registry and typed-config edge cases of the ``repro.api`` front door."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import (
    SolverConfig,
    available_models,
    available_problems,
    describe_model,
    describe_problem,
    register_model,
    register_problem,
    solve,
)
from repro.api.config import CoordinatorConfig, MPCConfig, StreamingConfig
from repro.api.registry import get_model, get_problem, unregister_model, unregister_problem
from repro.core.exceptions import InvalidConfigError, RegistryError, ReproError
from repro.core.result import SolveResult
from repro.problems import ConvexQuadraticProgram, LinearProgram


BUILTIN_MODELS = (
    "sequential",
    "streaming",
    "coordinator",
    "mpc",
    "exact",
    "single_pass_streaming",
    "ship_all_coordinator",
    "classic_reweighting",
)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #


def test_builtin_models_registered():
    names = available_models()
    for name in BUILTIN_MODELS:
        assert name in names


def test_builtin_problems_registered():
    names = available_problems()
    for name in (
        "linear_program",
        "minimum_enclosing_ball",
        "linear_svm",
        "quadratic_program",
    ):
        assert name in names


def test_unknown_model_error_lists_available(tiny_lp):
    with pytest.raises(RegistryError) as excinfo:
        solve(tiny_lp, model="no-such-model")
    message = str(excinfo.value)
    assert "no-such-model" in message
    for name in BUILTIN_MODELS:
        assert name in message


def test_unknown_problem_error_lists_available():
    with pytest.raises(RegistryError) as excinfo:
        get_problem("no-such-problem")
    message = str(excinfo.value)
    assert "no-such-problem" in message
    assert "linear_program" in message


def test_registry_errors_are_repro_errors(tiny_lp):
    with pytest.raises(ReproError):
        solve(tiny_lp, model="no-such-model")
    with pytest.raises(LookupError):
        get_model("no-such-model")


def test_duplicate_model_registration_raises():
    @register_model("test-dup-model", config_cls=SolverConfig)
    def _runner(problem, config):  # pragma: no cover - never dispatched
        raise AssertionError

    try:
        with pytest.raises(RegistryError, match="already registered"):
            register_model("test-dup-model", config_cls=SolverConfig)(_runner)
    finally:
        unregister_model("test-dup-model")


def test_duplicate_problem_registration_raises():
    register_problem("test-dup-problem", LinearProgram)
    try:
        with pytest.raises(RegistryError, match="already registered"):
            register_problem("test-dup-problem", LinearProgram)
    finally:
        unregister_problem("test-dup-problem")


def test_unregister_unknown_raises():
    with pytest.raises(RegistryError):
        unregister_model("never-registered")
    with pytest.raises(RegistryError):
        unregister_problem("never-registered")


def test_custom_model_dispatches_through_solve(tiny_lp):
    @register_model(
        "test-custom-model",
        config_cls=SolverConfig,
        description="a canned model for the registry test",
        currencies=("rounds",),
    )
    def _runner(problem, config):
        return SolveResult(
            value=42.0,
            witness=None,
            basis_indices=(),
            metadata={"seed": config.seed},
        )

    try:
        result = solve(tiny_lp, model="test-custom-model", seed=7)
        assert result.value == 42.0
        assert result.metadata["seed"] == 7
        description = describe_model("test-custom-model")
        assert description["currencies"] == ["rounds"]
        assert description["config_class"] == "SolverConfig"
    finally:
        unregister_model("test-custom-model")


def test_describe_model_exposes_capabilities():
    description = describe_model("mpc")
    assert description["name"] == "mpc"
    assert description["config_class"] == "MPCConfig"
    assert "replaces" not in description
    assert "delta" in description["config_keys"]
    assert description["config_keys"]["delta"] == 0.5
    assert "max_machine_load_bits" in description["currencies"]
    spec = get_model("coordinator")
    assert "num_sites" in spec.config_keys


def test_describe_problem():
    description = describe_problem("quadratic_program")
    assert description["factory"] == ConvexQuadraticProgram.__name__
    assert "optimization" in description["tags"]


# --------------------------------------------------------------------------- #
# Typed configs
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "cls, kwargs, field",
    [
        (SolverConfig, {"r": 0}, "r"),
        (SolverConfig, {"sample_scale": 0.0}, "sample_scale"),
        (SolverConfig, {"failure_probability": 1.0}, "failure_probability"),
        (SolverConfig, {"boost": 1.0}, "boost"),
        (SolverConfig, {"max_iterations": 0}, "max_iterations"),
        (SolverConfig, {"sample_size": 0}, "sample_size"),
        (SolverConfig, {"success_threshold": 1.5}, "success_threshold"),
        (StreamingConfig, {"r": -3}, "r"),
        (CoordinatorConfig, {"num_sites": 0}, "num_sites"),
        (MPCConfig, {"delta": 1.2}, "delta"),
        (MPCConfig, {"delta": 0.0}, "delta"),
        (MPCConfig, {"num_machines": 0}, "num_machines"),
    ],
)
def test_config_validation_names_offending_field(cls, kwargs, field):
    with pytest.raises(InvalidConfigError) as excinfo:
        cls(**kwargs)
    message = str(excinfo.value)
    assert f"{cls.__name__}.{field}" in message
    assert repr(list(kwargs.values())[0]) in message


def test_config_is_frozen():
    config = SolverConfig(r=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.r = 4


def test_facade_rejects_out_of_range_overrides(tiny_lp):
    with pytest.raises(InvalidConfigError, match=r"SolverConfig\.r"):
        solve(tiny_lp, model="sequential", r=0)
    with pytest.raises(InvalidConfigError, match=r"MPCConfig\.delta"):
        solve(tiny_lp, model="mpc", delta=2.0)


def test_facade_rejects_unknown_override(tiny_lp):
    with pytest.raises(InvalidConfigError) as excinfo:
        solve(tiny_lp, model="sequential", bogus_key=1)
    message = str(excinfo.value)
    assert "bogus_key" in message
    assert "seed" in message  # the supported keys are listed


def test_facade_rejects_foreign_config_type(tiny_lp):
    with pytest.raises(InvalidConfigError, match="SolverConfig"):
        solve(tiny_lp, model="sequential", config={"r": 2})


def test_practical_config_pins_the_clarkson_profile(medium_lp):
    config = SolverConfig.practical(medium_lp, r=2, seed=5)
    n, nu, r = medium_lp.num_constraints, medium_lp.combinatorial_dimension, 2
    epsilon = min(0.45, math.log(n) / (2.0 * nu * r * n ** (1.0 / r)))
    assert config.success_threshold == epsilon
    assert config.sample_size == min(n, math.ceil(4.0 * nu / epsilon) + nu)
    assert config.seed == 5


def test_practical_config_rejects_unknown_key(medium_lp):
    with pytest.raises(InvalidConfigError, match="bogus"):
        SolverConfig.practical(medium_lp, r=2, bogus=1)
