"""Hard-margin linear support vector machine as an LP-type problem (Section 4.2).

The problem is

    min  ||u||^2    subject to    y_j * <u, x_j> >= 1   for all j,

i.e. a maximum-margin separating hyperplane through the origin.  It is not a
linear program, but it is an LP-type problem with combinatorial dimension and
VC dimension at most ``d + 1``; the optimal ``u`` under any subset of the
constraints is unique (strict convexity), so no lexicographic tie-breaking is
needed.

Each constraint corresponds to one labelled data point ``(x_j, y_j)``; a
constraint is violated at ``u`` when ``y_j <u, x_j> < 1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.exceptions import InfeasibleProblemError, InvalidInstanceError
from ..core.lptype import (
    BasisResult,
    ConstraintPack,
    LPTypeProblem,
    as_index_array,
    working_set_solve,
)
from .family import ProblemFamily
from .qp import minimize_convex_qp

__all__ = ["SVMValue", "LinearSVM"]


@functools.total_ordering
@dataclass(frozen=True)
class SVMValue:
    """Totally ordered value of ``f`` for the SVM problem.

    Values compare on the squared norm of the optimal ``u``; an infeasible
    (non-separable) subset is the top element.
    """

    squared_norm: float
    infeasible: bool = False
    tolerance: float = 1e-6

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SVMValue):
            return NotImplemented
        if self.infeasible or other.infeasible:
            return self.infeasible == other.infeasible
        return abs(self.squared_norm - other.squared_norm) <= self.tolerance * max(
            1.0, abs(self.squared_norm), abs(other.squared_norm)
        )

    def __lt__(self, other: "SVMValue") -> bool:
        if not isinstance(other, SVMValue):
            return NotImplemented
        if self == other:
            return False
        if self.infeasible:
            return False
        if other.infeasible:
            return True
        return self.squared_norm < other.squared_norm

    def __hash__(self) -> int:
        return hash((self.infeasible, round(self.squared_norm, 6)))


class LinearSVM(LPTypeProblem):
    """Hard-margin linear SVM over labelled points.

    Parameters
    ----------
    points:
        Data matrix of shape ``(n, d)``.
    labels:
        Labels in ``{-1, +1}`` of shape ``(n,)``.
    tolerance:
        Margin-violation tolerance used in violation tests.
    """

    def __init__(
        self,
        points: Sequence[Sequence[float]] | np.ndarray,
        labels: Sequence[int] | np.ndarray,
        tolerance: float = 1e-6,
    ) -> None:
        self.points = np.asarray(points, dtype=float)
        self.labels = np.asarray(labels, dtype=float).reshape(-1)
        if self.points.ndim != 2:
            raise InvalidInstanceError("points must be a 2-d array")
        if self.points.shape[0] != self.labels.size:
            raise InvalidInstanceError(
                f"{self.points.shape[0]} points but {self.labels.size} labels"
            )
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise InvalidInstanceError("labels must be -1 or +1")
        self.tolerance = float(tolerance)
        # Pre-compute the signed data matrix y_j * x_j used in every solve.
        self._signed = self.points * self.labels[:, None]

    # ------------------------------------------------------------------ #
    # LPTypeProblem interface
    # ------------------------------------------------------------------ #

    @property
    def num_constraints(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def bit_size(self) -> int:
        # d coordinates plus the label.
        return self.dimension * 64 + 8

    def payload_num_coefficients(self) -> int:
        return self.dimension + 1

    def constraint_payload(self, index: int) -> tuple[np.ndarray, float]:
        return self.points[index].copy(), float(self.labels[index])

    def solve_subset(self, indices: Sequence[int]) -> BasisResult:
        return working_set_solve(self, as_index_array(indices), self._solve_subset_direct)

    def _solve_subset_direct(self, indices: Sequence[int]) -> BasisResult:
        idx = as_index_array(indices)
        if idx.size == 0:
            value = SVMValue(squared_norm=0.0)
            return BasisResult(indices=(), value=value, witness=np.zeros(self.dimension))
        g = self._signed[idx]
        h = np.ones(idx.size)
        try:
            solution = minimize_convex_qp(
                q_matrix=2.0 * np.eye(self.dimension),
                q_vector=np.zeros(self.dimension),
                g_matrix=g,
                h_vector=h,
            )
        except InfeasibleProblemError:
            value = SVMValue(squared_norm=float("inf"), infeasible=True)
            return BasisResult(
                indices=tuple(int(i) for i in idx[: self.combinatorial_dimension]),
                value=value,
                witness=None,
                subset_size=int(idx.size),
            )
        u = solution.x
        value = SVMValue(squared_norm=float(u @ u))
        basis = self._extract_basis(idx, u)
        return BasisResult(indices=basis, value=value, witness=u, subset_size=int(idx.size))

    def violates(self, witness: Optional[np.ndarray], index: int) -> bool:
        if witness is None:
            return False
        margin = float(self._signed[index] @ witness)
        return margin < 1.0 - self.tolerance

    def _build_constraint_pack(self) -> ConstraintPack:
        # Violated iff y_j <u, x_j> < 1 - tol (lower-bound sense with rhs 1).
        return ConstraintPack(
            rows=self._signed,
            rhs=np.ones(self.num_constraints),
            limit=self.tolerance,
            sense=-1,
        )

    def encode_witness(self, witness) -> tuple[np.ndarray, float] | None:
        if witness is None:
            return None
        return np.asarray(witness, dtype=float), 0.0

    # ------------------------------------------------------------------ #
    # Internals & convenience
    # ------------------------------------------------------------------ #

    def _extract_basis(self, idx: np.ndarray, u: np.ndarray) -> tuple[int, ...]:
        """Support vectors of the subset (margin exactly 1), capped at nu."""
        margins = self._signed[idx] @ u
        tight = idx[np.abs(margins - 1.0) <= 1e-4]
        if tight.size == 0:
            # Unconstrained optimum u = 0; the basis is empty.
            return ()
        return tuple(int(i) for i in tight[: self.combinatorial_dimension])

    def margin(self, u: np.ndarray) -> float:
        """Geometric margin ``1 / ||u||`` of a feasible ``u`` (inf for u=0)."""
        norm = float(np.linalg.norm(u))
        return float("inf") if norm == 0.0 else 1.0 / norm

    def classify(self, u: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Predicted labels (+1 / -1) of ``points`` under hyperplane ``u``."""
        scores = np.asarray(points, dtype=float) @ np.asarray(u, dtype=float)
        return np.where(scores >= 0.0, 1.0, -1.0)


def _synthetic_svm(n: int, d: int, seed: int) -> LinearSVM:
    from ..workloads import make_separable_classification, svm_problem

    return svm_problem(make_separable_classification(n, d, seed=seed))


LinearSVM.family = ProblemFamily(
    name="svm",
    aliases=("linear_svm",),
    cls=LinearSVM,
    constraint_arrays=(("points", 2), ("labels", 1)),
    options=(("tolerance", float),),
    synthetic=_synthetic_svm,
)
