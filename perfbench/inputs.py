"""Seeded inputs: one instance per LP-type family, made from NumPy alone.

The benchmark makes its own arrays instead of calling ``repro.workloads``, so
a change to the program cannot change what the benchmark feeds it.  The
witness check is likewise plain float64 NumPy, independent of repro's
kernels.
"""

from __future__ import annotations

import numpy as np

FAMILIES = ("lp", "meb", "svm", "qp")


def _unit_rows(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    rows = rng.normal(size=(count, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def make_arrays(family: str, n: int, d: int, rng: np.random.Generator) -> dict:
    """The raw arrays of one instance with ``n`` constraints in ``d`` dimensions."""
    if family == "lp":
        # Halfspaces tangent to the unit sphere, random objective direction.
        return {"c": _unit_rows(rng, 1, d)[0], "a": _unit_rows(rng, n, d), "b": np.ones(n)}
    if family == "meb":
        # Points uniform in the unit ball.
        directions = _unit_rows(rng, n, d)
        return {"points": directions * (rng.random(n) ** (1.0 / d))[:, None]}
    if family == "svm":
        # Gaussian points pushed off a random hyperplane: separable, margin 0.5.
        direction = _unit_rows(rng, 1, d)[0]
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        labels[:2] = (1.0, -1.0)
        points = rng.normal(scale=2.0, size=(n, d))
        deficit = 0.5 - labels * (points @ direction)
        shift = np.maximum(deficit, 0.0) + rng.uniform(0.0, 2.0, size=n)
        return {"points": points + (labels * shift)[:, None] * direction, "labels": labels}
    if family == "qp":
        # Strictly convex objective; g . x >= h holds at an anchor point.
        g = _unit_rows(rng, n, d)
        anchor = rng.uniform(-1.0, 1.0, size=d)
        return {
            "q_matrix": np.diag(np.linspace(1.0, 2.0, d)),
            "q_vector": rng.normal(size=d),
            "g_matrix": g,
            "h_vector": g @ anchor - rng.uniform(0.1, 1.0, size=n),
        }
    raise ValueError(f"unknown family {family!r}")


def build_problem(family: str, arrays: dict):
    """A fresh repro problem object over ``arrays`` (no array is copied here)."""
    from repro.problems import (
        ConvexQuadraticProgram,
        LinearProgram,
        LinearSVM,
        MinimumEnclosingBall,
    )

    cls = {
        "lp": LinearProgram,
        "meb": MinimumEnclosingBall,
        "svm": LinearSVM,
        "qp": ConvexQuadraticProgram,
    }[family]
    return cls(**arrays)


def violations(family: str, arrays: dict, witness, tolerance: float) -> int:
    """Constraints of the whole instance that ``witness`` violates.

    Uses each family's own violation rule and tolerance, evaluated here in
    float64 NumPy rather than through the program's packed kernels.
    """
    if family == "lp":
        a, b = arrays["a"], arrays["b"]
        scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=1), np.abs(b)))
        return int(np.count_nonzero(a @ witness - b > tolerance * scale + tolerance))
    if family == "meb":
        distance = np.linalg.norm(arrays["points"] - witness.center, axis=1)
        limit = witness.radius + tolerance * max(1.0, witness.radius)
        return int(np.count_nonzero(distance > limit))
    if family == "svm":
        margin = arrays["labels"] * (arrays["points"] @ witness)
        return int(np.count_nonzero(margin < 1.0 - tolerance))
    if family == "qp":
        g, h = arrays["g_matrix"], arrays["h_vector"]
        scale = np.maximum(1.0, np.maximum(np.abs(g).max(axis=1), np.abs(h)))
        return int(np.count_nonzero(g @ witness - h < -(tolerance * scale + tolerance)))
    raise ValueError(f"unknown family {family!r}")
