"""Small convex quadratic programming used by the SVM and MEB problems.

Both the hard-margin linear SVM (Eq. 6) and the minimum enclosing ball
(Eq. 7, after the standard change of variables) are convex quadratic programs
with only ``d`` or ``d + 1`` variables and one linear inequality constraint
per data point:

* SVM:  ``min ||u||^2          s.t.  y_j <u, x_j> >= 1``
* MEB:  ``min ||c||^2 + s      s.t.  2 <p_j, c> + s >= ||p_j||^2``
  (the optimal radius is ``sqrt(s + ||c||^2)``)

This module provides a generic solver for problems of the form::

    min  (1/2) x' Q x + q' x     s.t.   G x >= h

with ``Q`` positive semidefinite, built on SciPy's SLSQP.  The problem sizes
the meta-algorithm produces (a handful of variables, at most a few thousand
constraints from an eps-net sample) are comfortably within SLSQP's range.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from ..core.exceptions import InfeasibleProblemError, InvalidInstanceError, SolverError
from ..core.lptype import (
    BasisResult,
    ConstraintPack,
    LPTypeProblem,
    as_index_array,
    working_set_solve,
)
from .family import ProblemFamily, reject_nan

__all__ = ["QPSolution", "QPValue", "ConvexQuadraticProgram", "minimize_convex_qp"]


@dataclass(frozen=True)
class QPSolution:
    """Solution of a convex QP: the optimal point and objective value."""

    x: np.ndarray
    objective: float


def minimize_convex_qp(
    q_matrix: np.ndarray,
    q_vector: np.ndarray,
    g_matrix: Optional[np.ndarray] = None,
    h_vector: Optional[np.ndarray] = None,
    x0: Optional[np.ndarray] = None,
    max_iterations: int = 200,
    feasibility_tolerance: float = 1e-7,
) -> QPSolution:
    """Minimise ``(1/2) x' Q x + q' x`` subject to ``G x >= h``.

    Parameters
    ----------
    q_matrix:
        Positive semidefinite matrix ``Q`` of shape ``(d, d)``.
    q_vector:
        Linear term ``q`` of shape ``(d,)``.
    g_matrix, h_vector:
        Inequality constraints ``G x >= h`` (may be omitted / empty).
    x0:
        Optional warm start.
    max_iterations:
        SLSQP iteration budget.
    feasibility_tolerance:
        Maximum allowed constraint violation of the returned point; a larger
        violation raises :class:`InfeasibleProblemError`.

    Raises
    ------
    InfeasibleProblemError
        If no feasible point is found (SLSQP converges to an infeasible
        stationary point, the standard signature of an empty feasible set
        for these problems).
    SolverError
        On any other optimiser failure.
    """
    q_matrix = np.asarray(q_matrix, dtype=float)
    q_vector = np.asarray(q_vector, dtype=float).reshape(-1)
    d = q_vector.size
    if q_matrix.shape != (d, d):
        raise ValueError(f"Q must have shape ({d}, {d}), got {q_matrix.shape}")

    if g_matrix is None or len(g_matrix) == 0:
        g = np.zeros((0, d))
        h = np.zeros(0)
    else:
        g = np.asarray(g_matrix, dtype=float).reshape(-1, d)
        h = np.asarray(h_vector, dtype=float).reshape(-1)
    if g.shape[0] != h.shape[0]:
        raise ValueError("G and h must have matching first dimensions")

    def objective(x: np.ndarray) -> float:
        return float(0.5 * x @ q_matrix @ x + q_vector @ x)

    def gradient(x: np.ndarray) -> np.ndarray:
        return q_matrix @ x + q_vector

    constraints = []
    if g.shape[0] > 0:
        constraints.append(
            {
                "type": "ineq",
                "fun": lambda x: g @ x - h,
                "jac": lambda x: g,
            }
        )

    start = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).reshape(d)
    result = minimize(
        objective,
        start,
        jac=gradient,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": 1e-12},
    )

    x = np.asarray(result.x, dtype=float)
    if g.shape[0] > 0:
        violation = float(np.max(h - g @ x, initial=0.0))
    else:
        violation = 0.0
    if violation > max(feasibility_tolerance, 1e-6 * max(1.0, float(np.abs(h).max(initial=0.0)))):
        raise InfeasibleProblemError(
            f"QP appears infeasible (max constraint violation {violation:.3g})"
        )
    if not result.success and violation > feasibility_tolerance:
        raise SolverError(f"SLSQP failed: {result.message}")
    return QPSolution(x=x, objective=objective(x))


@functools.total_ordering
@dataclass(frozen=True)
class QPValue:
    """Totally ordered ``f`` value of the QP problem: the objective.

    Strict convexity of the objective (``Q`` positive definite) makes the
    optimum of every subset unique, so comparing objectives suffices; an
    infeasible subset is the top element.
    """

    objective: float
    infeasible: bool = False
    tolerance: float = 1e-6

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPValue):
            return NotImplemented
        if self.infeasible or other.infeasible:
            return self.infeasible == other.infeasible
        return abs(self.objective - other.objective) <= self.tolerance * max(
            1.0, abs(self.objective), abs(other.objective)
        )

    def __lt__(self, other: "QPValue") -> bool:
        if not isinstance(other, QPValue):
            return NotImplemented
        if self == other:
            return False
        if self.infeasible:
            return False
        if other.infeasible:
            return True
        return self.objective < other.objective

    def __hash__(self) -> int:
        return hash((self.infeasible, round(self.objective, 6)))


class ConvexQuadraticProgram(LPTypeProblem):
    """A strictly convex QP ``min (1/2) x' Q x + q' x  s.t.  G x >= h`` as an
    LP-type problem.

    Every row of ``G`` (with its entry of ``h``) is one constraint; the SVM
    and MEB formulations (Eqs. 6 and 7) are the special cases the paper
    names, and this class exposes the general form so that new quadratic
    workloads plug straight into all four drivers.  Strict convexity of the
    objective makes the subset optimum unique, so the combinatorial
    dimension is at most ``d + 1`` and no lexicographic tie-breaking is
    needed.
    """

    def __init__(
        self,
        q_matrix: Sequence[Sequence[float]] | np.ndarray,
        q_vector: Sequence[float] | np.ndarray,
        g_matrix: Sequence[Sequence[float]] | np.ndarray,
        h_vector: Sequence[float] | np.ndarray,
        tolerance: float = 1e-6,
    ) -> None:
        self.q_matrix = np.asarray(q_matrix, dtype=float)
        self.q_vector = np.asarray(q_vector, dtype=float).reshape(-1)
        self.g_matrix = np.asarray(g_matrix, dtype=float)
        self.h_vector = np.asarray(h_vector, dtype=float).reshape(-1)
        d = self.q_vector.size
        if self.q_matrix.shape != (d, d):
            raise InvalidInstanceError(
                f"Q must have shape ({d}, {d}), got {self.q_matrix.shape}"
            )
        if self.g_matrix.ndim != 2 or self.g_matrix.shape[1] != d:
            raise InvalidInstanceError(
                f"G must have shape (n, {d}), got {self.g_matrix.shape}"
            )
        if self.g_matrix.shape[0] != self.h_vector.size:
            raise InvalidInstanceError(
                f"{self.g_matrix.shape[0]} constraint rows but "
                f"{self.h_vector.size} right-hand sides"
            )
        reject_nan(
            q_matrix=self.q_matrix,
            q_vector=self.q_vector,
            g_matrix=self.g_matrix,
            h_vector=self.h_vector,
        )
        eigenvalues = np.linalg.eigvalsh(0.5 * (self.q_matrix + self.q_matrix.T))
        if eigenvalues.min() <= 0:
            raise InvalidInstanceError(
                "Q must be positive definite for the LP-type formulation "
                "(unique subset optima)"
            )
        self.tolerance = float(tolerance)

    # ------------------------------------------------------------------ #
    # LPTypeProblem interface
    # ------------------------------------------------------------------ #

    @property
    def num_constraints(self) -> int:
        return int(self.g_matrix.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.q_vector.size)

    def bit_size(self) -> int:
        # d coefficients of the constraint row plus the right-hand side.
        return (self.dimension + 1) * 64

    def payload_num_coefficients(self) -> int:
        return self.dimension + 1

    def solve_subset(self, indices: Sequence[int]) -> BasisResult:
        return working_set_solve(self, as_index_array(indices), self._solve_subset_direct)

    def _solve_subset_direct(self, indices: Sequence[int]) -> BasisResult:
        idx = as_index_array(indices)
        g = self.g_matrix[idx] if idx.size else np.zeros((0, self.dimension))
        h = self.h_vector[idx] if idx.size else np.zeros(0)
        try:
            solution = minimize_convex_qp(
                q_matrix=self.q_matrix, q_vector=self.q_vector, g_matrix=g, h_vector=h
            )
        except InfeasibleProblemError:
            return BasisResult(
                indices=tuple(int(i) for i in idx[: self.combinatorial_dimension]),
                value=QPValue(objective=float("inf"), infeasible=True),
                witness=None,
                subset_size=int(idx.size),
            )
        return BasisResult(
            indices=self._extract_basis(idx, solution.x),
            value=QPValue(objective=solution.objective),
            witness=solution.x,
            subset_size=int(idx.size),
        )

    def violates(self, witness: Optional[np.ndarray], index: int) -> bool:
        if witness is None:
            return False
        row = self.g_matrix[index]
        slack = float(row @ witness - self.h_vector[index])
        scale = max(1.0, float(np.abs(row).max()), abs(float(self.h_vector[index])))
        return slack < -(self.tolerance * scale + self.tolerance)

    def _build_constraint_pack(self) -> ConstraintPack:
        # Violated iff g_i . x - h_i < -(tol * scale_i + tol) (lower-bound sense).
        scale = np.maximum(
            1.0, np.maximum(np.abs(self.g_matrix).max(axis=1), np.abs(self.h_vector))
        )
        return ConstraintPack(
            rows=self.g_matrix,
            rhs=self.h_vector,
            limit=self.tolerance * scale + self.tolerance,
            sense=-1,
        )

    def encode_witness(self, witness) -> tuple[np.ndarray, float] | None:
        if witness is None:
            return None
        return np.asarray(witness, dtype=float), 0.0

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _extract_basis(self, idx: np.ndarray, x: np.ndarray) -> tuple[int, ...]:
        """Tight constraints at the optimum, capped at ``nu``."""
        if idx.size == 0:
            return ()
        rows = self.g_matrix[idx]
        rhs = self.h_vector[idx]
        slack = np.abs(rows @ x - rhs)
        scale = np.maximum(1.0, np.maximum(np.abs(rows).max(axis=1), np.abs(rhs)))
        tight = idx[slack <= 1e-4 * scale + 1e-4]
        return tuple(int(i) for i in tight[: self.combinatorial_dimension])


def _synthetic_qp(n: int, d: int, seed: int) -> ConvexQuadraticProgram:
    rng = np.random.default_rng(seed)
    q_matrix = np.diag(np.linspace(1.0, 2.0, d))
    normals = rng.normal(size=(n, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchor = rng.uniform(-1.0, 1.0, size=d)
    h_vector = normals @ anchor - rng.uniform(0.1, 1.0, size=n)
    return ConvexQuadraticProgram(q_matrix, rng.normal(size=d), normals, h_vector)


ConvexQuadraticProgram.family = ProblemFamily(
    name="qp",
    aliases=("quadratic_program",),
    cls=ConvexQuadraticProgram,
    instance_arrays=(("q_matrix", 2), ("q_vector", 1)),
    constraint_arrays=(("g_matrix", 2), ("h_vector", 1)),
    options=(("tolerance", float),),
    synthetic=_synthetic_qp,
)
