"""The built-in problem constructors reject NaN with a typed error.

A NaN margin never counts as violated, so a NaN row used to be silently
ignored by the solve (LP, MEB) or to surface as a solver's untyped error (a
NaN objective).  Each constructor now raises ``InvalidInstanceError`` naming
the array, for every array of its family descriptor.  Infinity stays an
accepted value, and an instance with no constraints still builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import InvalidInstanceError
from repro.problems import (
    ConvexQuadraticProgram,
    LinearProgram,
    LinearSVM,
    MinimumEnclosingBall,
)
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    uniform_ball_points,
)


def _with_nan(arr: np.ndarray, at) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out[at] = np.nan
    return out


def _assert_rejects(build, arrays: dict, name: str, at) -> None:
    bad = dict(arrays, **{name: _with_nan(arrays[name], at)})
    with pytest.raises(InvalidInstanceError, match=rf"^{name} contains NaN$"):
        build(**bad)


def test_linear_program_rejects_nan():
    lp = random_polytope_lp(2_000, 3, seed=1).problem
    arrays = dict(c=lp.c, a=lp.a, b=lp.b)
    for name, at in (("c", 0), ("a", (1_234, 1)), ("b", 17)):
        _assert_rejects(LinearProgram, arrays, name, at)
    # Infinity is a value, not a hole: a never-binding row still builds.
    b = lp.b.copy()
    b[5] = np.inf
    LinearProgram(lp.c, lp.a, b)
    LinearProgram(lp.c, np.empty((0, 3)), np.empty(0))


def test_minimum_enclosing_ball_rejects_nan():
    points = uniform_ball_points(2_000, 3, seed=2)
    _assert_rejects(MinimumEnclosingBall, dict(points=points), "points", (999, 2))


def test_linear_svm_rejects_nan():
    data = make_separable_classification(1_000, 3, seed=3)
    arrays = dict(points=data.points, labels=data.labels)
    for name, at in (("points", (10, 0)), ("labels", 500)):
        _assert_rejects(LinearSVM, arrays, name, at)


def test_quadratic_program_rejects_nan():
    rng = np.random.default_rng(4)
    d, n = 3, 500
    normals = rng.normal(size=(n, d))
    arrays = dict(
        q_matrix=np.diag([1.0, 1.5, 2.0]),
        q_vector=rng.normal(size=d),
        g_matrix=normals,
        h_vector=normals @ rng.uniform(-1.0, 1.0, size=d) - 0.5,
    )
    ConvexQuadraticProgram(**arrays)
    for name, at in (
        ("q_matrix", (1, 1)),
        ("q_vector", 2),
        ("g_matrix", (42, 1)),
        ("h_vector", 7),
    ):
        _assert_rejects(ConvexQuadraticProgram, arrays, name, at)
