"""Linear programming as an LP-type problem (Section 4.1 of the paper).

A d-dimensional linear program ``min c.x  s.t.  A x <= b`` is cast as an
LP-type problem ``(S, f)``: each constraint is the halfspace of points
satisfying it, and ``f(A)`` is the *lexicographically smallest* optimal point
of the LP restricted to the constraints in ``A`` (Proposition 4.1).  Every
subset is intersected with a bounding box ``[-M, M]^d`` so that ``f`` is
defined (and finite) for all subsets, including the empty one.

Combinatorial dimension and VC dimension are both ``d + 1``.
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
from .seidel import seidel_solve
from .solvers import DEFAULT_TOLERANCE, lexicographic_minimum, solve_lp

__all__ = ["LexicographicValue", "LinearProgram", "DEFAULT_BOX_BOUND"]

#: Default half-width of the bounding box added to every instance.
DEFAULT_BOX_BOUND = 1.0e6


@functools.total_ordering
@dataclass(frozen=True)
class LexicographicValue:
    """Totally ordered value of ``f`` for the LP-type formulation of LP.

    Values compare first on feasibility (infeasible is the top element), then
    on the objective, then lexicographically on the coordinates of the
    witness point.  Comparisons use a small absolute tolerance so that
    floating-point noise from different solver backends does not produce
    spurious strict inequalities.
    """

    objective: float
    coordinates: tuple[float, ...]
    infeasible: bool = False
    tolerance: float = 1e-6

    def _key(self) -> tuple:
        if self.infeasible:
            return (1,)
        return (0, self.objective, self.coordinates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LexicographicValue):
            return NotImplemented
        if self.infeasible or other.infeasible:
            return self.infeasible == other.infeasible
        if abs(self.objective - other.objective) > self.tolerance:
            return False
        return all(
            abs(a - b) <= self.tolerance
            for a, b in zip(self.coordinates, other.coordinates)
        )

    def __lt__(self, other: "LexicographicValue") -> bool:
        if not isinstance(other, LexicographicValue):
            return NotImplemented
        if self == other:
            return False
        if self.infeasible:
            return False
        if other.infeasible:
            return True
        if self.objective < other.objective - self.tolerance:
            return True
        if self.objective > other.objective + self.tolerance:
            return False
        for a, b in zip(self.coordinates, other.coordinates):
            if a < b - self.tolerance:
                return True
            if a > b + self.tolerance:
                return False
        return False

    def __hash__(self) -> int:
        return hash((self.infeasible, round(self.objective, 6)))


class LinearProgram(LPTypeProblem):
    """A d-dimensional linear program ``min c.x  s.t.  A x <= b``.

    Parameters
    ----------
    c:
        Objective vector of shape ``(d,)``.
    a:
        Constraint matrix of shape ``(n, d)``.
    b:
        Right-hand sides of shape ``(n,)``.
    box_bound:
        Half-width ``M`` of the bounding box intersected with every subset.
    solver:
        ``"highs"`` (scipy, default) or ``"seidel"`` (the from-scratch
        randomised incremental solver).  Both are exercised by the ablation
        benchmark A2.
    lexicographic:
        Whether ``f`` returns the lexicographically smallest optimum (the
        paper's formulation).  Disabling it skips the d extra LP solves per
        basis computation; the meta-algorithm remains correct whenever the
        optimum is unique, and the option is used by benchmarks that only
        need the objective value.
    tolerance:
        Constraint-satisfaction tolerance used in violation tests.
    """

    def __init__(
        self,
        c: Sequence[float] | np.ndarray,
        a: Sequence[Sequence[float]] | np.ndarray,
        b: Sequence[float] | np.ndarray,
        box_bound: float = DEFAULT_BOX_BOUND,
        solver: str = "highs",
        lexicographic: bool = True,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        self.c = np.asarray(c, dtype=float).reshape(-1)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float).reshape(-1)
        if self.a.ndim != 2:
            raise InvalidInstanceError(f"constraint matrix must be 2-d, got {self.a.ndim}-d")
        if self.a.shape[1] != self.c.size:
            raise InvalidInstanceError(
                f"constraint matrix has {self.a.shape[1]} columns but the "
                f"objective has {self.c.size} coordinates"
            )
        if self.a.shape[0] != self.b.size:
            raise InvalidInstanceError(
                f"{self.a.shape[0]} constraint rows but {self.b.size} right-hand sides"
            )
        if box_bound <= 0:
            raise InvalidInstanceError(f"box_bound must be positive, got {box_bound}")
        if solver not in ("highs", "seidel"):
            raise InvalidInstanceError(f"unknown solver backend {solver!r}")
        self.box_bound = float(box_bound)
        self.solver = solver
        self.lexicographic = lexicographic
        self.tolerance = float(tolerance)

    # ------------------------------------------------------------------ #
    # LPTypeProblem interface
    # ------------------------------------------------------------------ #

    @property
    def num_constraints(self) -> int:
        return int(self.a.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.c.size)

    def bit_size(self) -> int:
        # Each constraint carries d coefficients plus one right-hand side.
        return (self.dimension + 1) * 64

    def payload_num_coefficients(self) -> int:
        return self.dimension + 1

    def constraint_payload(self, index: int) -> tuple[np.ndarray, float]:
        return self.a[index].copy(), float(self.b[index])

    def solve_subset(self, indices: Sequence[int]) -> BasisResult:
        # Growth rounds of the working-set loop skip the lexicographic
        # refinement (d extra LP solves) — only the final exact solve pays it.
        probe = (
            self._solve_subset_probe
            if self.lexicographic and self.solver == "highs"
            else None
        )
        return working_set_solve(
            self, as_index_array(indices), self._solve_subset_direct, probe_solve=probe
        )

    def _solve_subset_probe(self, indices: Sequence[int]) -> BasisResult:
        return self._solve_subset_direct(indices, lexicographic=False)

    def _solve_subset_direct(
        self, indices: Sequence[int], lexicographic: Optional[bool] = None
    ) -> BasisResult:
        idx = as_index_array(indices)
        a_sub = self.a[idx] if idx.size else np.zeros((0, self.dimension))
        b_sub = self.b[idx] if idx.size else np.zeros(0)
        bounds = (-self.box_bound, self.box_bound)
        try:
            witness = self._optimise(a_sub, b_sub, bounds, lexicographic=lexicographic)
        except InfeasibleProblemError:
            value = LexicographicValue(
                objective=float("inf"), coordinates=(), infeasible=True
            )
            return BasisResult(
                indices=tuple(int(i) for i in idx[: self.combinatorial_dimension]),
                value=value,
                witness=None,
                subset_size=int(idx.size),
            )

        value = LexicographicValue(
            objective=float(self.c @ witness), coordinates=tuple(float(v) for v in witness)
        )
        basis = self._extract_basis(idx, witness)
        return BasisResult(
            indices=basis, value=value, witness=witness, subset_size=int(idx.size)
        )

    def violates(self, witness: Optional[np.ndarray], index: int) -> bool:
        if witness is None:
            # f of the subset is already the top element; nothing can violate it.
            return False
        row = self.a[index]
        slack = float(row @ witness - self.b[index])
        scale = max(1.0, float(np.abs(row).max()), abs(float(self.b[index])))
        return slack > self.tolerance * scale + self.tolerance

    def _build_constraint_pack(self) -> ConstraintPack:
        # Violated iff a_i . x - b_i > tol * scale_i + tol (upper-bound sense).
        if self.a.size:
            scale = np.maximum(1.0, np.maximum(np.abs(self.a).max(axis=1), np.abs(self.b)))
        else:
            scale = np.ones(self.num_constraints)
        return ConstraintPack(
            rows=self.a,
            rhs=self.b,
            limit=self.tolerance * scale + self.tolerance,
            sense=1,
        )

    def encode_witness(self, witness) -> tuple[np.ndarray, float] | None:
        if witness is None:
            return None
        return np.asarray(witness, dtype=float), 0.0

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _optimise(
        self,
        a_sub: np.ndarray,
        b_sub: np.ndarray,
        bounds: tuple[float, float],
        lexicographic: Optional[bool] = None,
    ) -> np.ndarray:
        """Optimal (lexicographically smallest, if enabled) point of a sub-LP."""
        if lexicographic is None:
            lexicographic = self.lexicographic
        if self.solver == "seidel":
            # Seidel's algorithm returns an optimal vertex but not the
            # lexicographically smallest one; ties are broken by the random
            # insertion order instead.  This is sufficient whenever the
            # optimum is unique (the common case for the random workloads)
            # and is what the solver ablation measures.
            return seidel_solve(self.c, a_sub, b_sub, box=self.box_bound).x
        if lexicographic:
            return lexicographic_minimum(self.c, a_sub, b_sub, bounds).x
        return solve_lp(self.c, a_ub=a_sub, b_ub=b_sub, bounds=bounds).x

    def _extract_basis(self, idx: np.ndarray, witness: np.ndarray) -> tuple[int, ...]:
        """Select at most ``d + 1`` tight constraints defining ``witness``.

        On non-degenerate instances the tight set already has at most ``d``
        members.  Under degeneracy we keep a maximal linearly independent
        subset of the tight constraint gradients (plus one extra slot), which
        preserves ``f`` and keeps the stored-basis space bound of Theorem 1.
        """
        if idx.size == 0:
            return ()
        rows = self.a[idx]
        rhs = self.b[idx]
        slack = np.abs(rows @ witness - rhs)
        scale = np.maximum(1.0, np.maximum(np.abs(rows).max(axis=1), np.abs(rhs)))
        tight_mask = slack <= 1e-6 * scale + 1e-6
        tight = idx[tight_mask]
        if tight.size <= self.combinatorial_dimension:
            return tuple(int(i) for i in tight)
        # Degenerate optimum: pick linearly independent gradients greedily.
        chosen: list[int] = []
        basis_rows: list[np.ndarray] = []
        for constraint_index in tight:
            row = self.a[constraint_index]
            if not basis_rows:
                chosen.append(int(constraint_index))
                basis_rows.append(row)
                continue
            stack = np.vstack(basis_rows + [row])
            if np.linalg.matrix_rank(stack) > len(basis_rows):
                chosen.append(int(constraint_index))
                basis_rows.append(row)
            if len(chosen) >= self.combinatorial_dimension:
                break
        return tuple(chosen)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def objective_at(self, x: np.ndarray) -> float:
        """Objective value ``c.x`` at a point."""
        return float(self.c @ np.asarray(x, dtype=float))

    def is_feasible(self, x: np.ndarray, indices: Sequence[int] | None = None) -> bool:
        """Check feasibility of ``x`` for the given constraints (default: all)."""
        idx = self.all_indices() if indices is None else np.asarray(list(indices), dtype=int)
        return self.violating_indices(np.asarray(x, dtype=float), idx).size == 0


def _synthetic_lp(n: int, d: int, seed: int) -> LinearProgram:
    from ..workloads import random_polytope_lp

    return random_polytope_lp(n, d, seed=seed).problem


LinearProgram.family = ProblemFamily(
    name="lp",
    aliases=("linear_program",),
    cls=LinearProgram,
    instance_arrays=(("c", 1),),
    constraint_arrays=(("a", 2), ("b", 1)),
    options=(
        ("box_bound", float),
        ("solver", str),
        ("lexicographic", bool),
        ("tolerance", float),
    ),
    synthetic=_synthetic_lp,
)
