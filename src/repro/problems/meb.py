"""Minimum enclosing ball / core vector machine as an LP-type problem (Section 4.3).

The core vector machine of Tsang et al. reformulates kernel SVM training as a
minimum enclosing ball (MEB) computation:

    min  r    subject to   ||p - p_j||_2 <= r   for all j.

After the standard change of variables ``s = r^2 - ||p||^2`` this becomes a
convex QP with linear constraints:

    min  ||p||^2 + s    subject to    2 <p_j, p> + s >= ||p_j||^2,

solved here with the shared small-QP backend.  A from-scratch Badoiu-Clarkson
core-set solver is also provided (:func:`badoiu_clarkson_meb`); it is used as
an independent cross-check in the tests and as an alternative backend in the
solver ablation.

Combinatorial dimension and VC dimension are at most ``d + 1``; the optimal
ball of any subset is unique.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import kernels
from ..core.exceptions import InvalidInstanceError
from ..core.lptype import (
    BasisResult,
    ConstraintPack,
    LPTypeProblem,
    as_index_array,
    working_set_solve,
)
from ..core.rng import SeedLike, as_generator
from .family import ProblemFamily
from .qp import minimize_convex_qp

__all__ = ["Ball", "MEBValue", "MinimumEnclosingBall", "badoiu_clarkson_meb"]

#: Largest working set handed to the exact batched-circumcentre solver; the
#: number of candidate support subsets is ``sum_m C(k, m) < 2^k``, so this
#: keeps one batch comfortably small while covering every basis-sized solve.
_EXACT_SUBSET_LIMIT = 10


@dataclass(frozen=True)
class Ball:
    """A d-dimensional ball given by its center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    def contains(self, point: np.ndarray, tolerance: float = 1e-7) -> bool:
        """Whether ``point`` lies inside the ball (up to ``tolerance``)."""
        distance = float(np.linalg.norm(np.asarray(point, dtype=float) - self.center))
        return distance <= self.radius + tolerance * max(1.0, self.radius)


@functools.total_ordering
@dataclass(frozen=True)
class MEBValue:
    """Totally ordered ``f`` value: the radius of the optimal ball."""

    radius: float
    tolerance: float = 1e-6

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MEBValue):
            return NotImplemented
        return abs(self.radius - other.radius) <= self.tolerance * max(
            1.0, abs(self.radius), abs(other.radius)
        )

    def __lt__(self, other: "MEBValue") -> bool:
        if not isinstance(other, MEBValue):
            return NotImplemented
        if self == other:
            return False
        return self.radius < other.radius

    def __hash__(self) -> int:
        return hash(round(self.radius, 6))


class MinimumEnclosingBall(LPTypeProblem):
    """Minimum enclosing ball over a point set.

    Parameters
    ----------
    points:
        Point matrix of shape ``(n, d)``.
    tolerance:
        Containment tolerance used in violation tests.  Violation tests for
        MEB are sensitive to the accuracy of the radius; the default is
        chosen to play well with the QP backend's accuracy.
    """

    def __init__(
        self,
        points: Sequence[Sequence[float]] | np.ndarray,
        tolerance: float = 1e-5,
    ) -> None:
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2:
            raise InvalidInstanceError("points must be a 2-d array")
        if self.points.shape[0] == 0:
            raise InvalidInstanceError("point set must be non-empty")
        self.tolerance = float(tolerance)
        self._squared_norms = np.einsum("ij,ij->i", self.points, self.points)

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
        return self.dimension * 64

    def payload_num_coefficients(self) -> int:
        return self.dimension

    def constraint_payload(self, index: int) -> np.ndarray:
        return self.points[index].copy()

    def solve_subset(self, indices: Sequence[int]) -> BasisResult:
        return working_set_solve(self, as_index_array(indices), self._solve_subset_direct)

    def _solve_subset_direct(self, indices: Sequence[int]) -> BasisResult:
        idx = as_index_array(indices)
        if idx.size == 0:
            ball = Ball(center=np.zeros(self.dimension), radius=0.0)
            return BasisResult(indices=(), value=MEBValue(radius=0.0), witness=ball)
        if idx.size == 1:
            ball = Ball(center=self.points[idx[0]].copy(), radius=0.0)
            return BasisResult(
                indices=(int(idx[0]),), value=MEBValue(radius=0.0), witness=ball,
                subset_size=1,
            )
        ball = None
        if idx.size <= _EXACT_SUBSET_LIMIT:
            ball = self._solve_small_exact(idx)
        if ball is None:
            ball = self._solve_qp(idx)
        basis = self._extract_basis(idx, ball)
        return BasisResult(
            indices=basis,
            value=MEBValue(radius=ball.radius),
            witness=ball,
            subset_size=int(idx.size),
        )

    def violates(self, witness: Optional[Ball], index: int) -> bool:
        if witness is None:
            return False
        return not witness.contains(self.points[index], tolerance=self.tolerance)

    def _build_constraint_pack(self) -> ConstraintPack:
        # Containment in squared form: ||p - c||^2 = ||q||^2 - 2 q.c' + ||c'||^2
        # with q = p - m, c' = c - m for the cloud centroid m (the squared
        # distance is translation-invariant).  Centring keeps ||q||^2 at the
        # scale of the cloud's *spread* rather than its coordinate magnitude,
        # so the expansion does not cancel catastrophically for clouds far
        # from the origin.  With rows = -2q and rhs = -||q||^2 the packed
        # margin ``rows.c' + offset - rhs`` equals ``||p - c||^2 - limit(r)^2``
        # when the witness encodes ``offset = ||c'||^2 - limit(r)^2``.
        self._pack_shift = self.points.mean(axis=0)
        centred = self.points - self._pack_shift
        return ConstraintPack(
            rows=-2.0 * centred,
            rhs=-np.einsum("ij,ij->i", centred, centred),
            limit=0.0,
            sense=1,
        )

    def encode_witness(self, witness: Optional[Ball]) -> tuple[np.ndarray, float] | None:
        if witness is None:
            return None
        self.constraint_pack()  # ensure the centring shift exists
        centre = witness.center - self._pack_shift
        limit = witness.radius + self.tolerance * max(1.0, witness.radius)
        return centre, float(centre @ centre - limit * limit)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _solve_small_exact(self, idx: np.ndarray) -> Optional[Ball]:
        """Exact MEB of a tiny subset via batched circumcentre systems.

        The optimal ball of ``k`` points is determined by a support subset of
        2 to ``d + 1`` points whose circumcentre (the equidistant point in the
        subset's affine hull) is the ball's centre.  All candidate subsets of
        one size are solved in a single batched linear solve through the
        active kernel backend: with ``q_i = p_i - p_0`` the circumcentre is
        ``p_0 + lambda . q`` where ``(q q^T) lambda = ||q_i||^2 / 2``.  Each
        candidate's radius is its centre's maximum distance over *all* subset
        points, so garbage centres from non-support subsets are harmless
        (their radius only over-encloses) and the minimum over candidates is
        the exact optimum.  Returns ``None`` when every system is
        near-singular (fully degenerate clouds fall back to the QP).
        """
        pts = self.points[idx]
        k = int(idx.size)
        backend = kernels.active_backend()
        best_center: Optional[np.ndarray] = None
        best_radius = np.inf
        spread = float(np.abs(pts - pts[0]).max())
        if spread == 0.0:
            # All points coincide: a zero-radius ball, no system to solve.
            return Ball(center=pts[0].copy(), radius=0.0)
        for m in range(2, min(k, self.dimension + 1) + 1):
            combos = np.asarray(
                list(itertools.combinations(range(k), m)), dtype=int
            )
            base = pts[combos[:, 0]]
            q = pts[combos[:, 1:]] - base[:, None, :]
            gram = q @ np.transpose(q, (0, 2, 1))
            rhs = 0.5 * np.einsum("bij,bij->bi", q, q)
            # Scale-relative singularity filter: Gram entries are O(spread^2),
            # so a well-conditioned determinant is O(spread^(2(m-1))).
            ok = np.abs(np.linalg.det(gram)) > 1e-12 * spread ** (2 * (m - 1))
            if not ok.any():
                continue
            lam = backend.solve_many(gram[ok], rhs[ok])
            centers = base[ok] + np.einsum("bi,bij->bj", lam, q[ok])
            radii = np.linalg.norm(
                pts[None, :, :] - centers[:, None, :], axis=2
            ).max(axis=1)
            j = int(np.argmin(radii))
            if float(radii[j]) < best_radius:
                best_radius = float(radii[j])
                best_center = centers[j]
        if best_center is None:
            return None
        return Ball(center=best_center, radius=best_radius)

    def _solve_qp(self, idx: np.ndarray) -> Ball:
        """Solve the MEB QP over the points with the given indices."""
        d = self.dimension
        pts = self.points[idx]
        norms = self._squared_norms[idx]
        # Variables z = (p, s): minimise ||p||^2 + s subject to
        # 2 <p_j, p> + s >= ||p_j||^2.
        q_matrix = np.zeros((d + 1, d + 1))
        q_matrix[:d, :d] = 2.0 * np.eye(d)
        q_vector = np.zeros(d + 1)
        q_vector[d] = 1.0
        g = np.hstack([2.0 * pts, np.ones((idx.size, 1))])
        start = np.zeros(d + 1)
        start[:d] = pts.mean(axis=0)
        start[d] = float(np.max(np.linalg.norm(pts - start[:d], axis=1)) ** 2) - float(
            start[:d] @ start[:d]
        )
        solution = minimize_convex_qp(
            q_matrix=q_matrix,
            q_vector=q_vector,
            g_matrix=g,
            h_vector=norms,
            x0=start,
        )
        center = solution.x[:d]
        squared_radius = float(solution.x[d] + center @ center)
        radius = float(np.sqrt(max(0.0, squared_radius)))
        return Ball(center=center, radius=radius)

    def _extract_basis(self, idx: np.ndarray, ball: Ball) -> tuple[int, ...]:
        """Points on the boundary of the optimal ball, capped at nu."""
        distances = np.linalg.norm(self.points[idx] - ball.center, axis=1)
        tight = idx[np.abs(distances - ball.radius) <= 1e-4 * max(1.0, ball.radius)]
        if tight.size == 0:
            tight = idx[np.argsort(distances)[-min(idx.size, self.combinatorial_dimension):]]
        return tuple(int(i) for i in tight[: self.combinatorial_dimension])


def badoiu_clarkson_meb(
    points: np.ndarray,
    epsilon: float = 1e-3,
    rng: SeedLike = None,
) -> Ball:
    """Badoiu-Clarkson core-set algorithm for an (1 + eps)-approximate MEB.

    A from-scratch iterative solver: starting from an arbitrary point, the
    center repeatedly moves a ``1/(k+1)`` fraction towards the farthest
    point.  After ``O(1/eps^2)`` iterations the ball centered at the iterate
    with the farthest-point radius is a ``(1 + eps)`` approximation.  Used as
    an independent cross-check of the QP backend.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidInstanceError("points must be a non-empty 2-d array")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    gen = as_generator(rng)
    center = pts[int(gen.integers(0, pts.shape[0]))].astype(float).copy()
    iterations = int(np.ceil(1.0 / (epsilon * epsilon)))
    for k in range(1, iterations + 1):
        distances = np.linalg.norm(pts - center, axis=1)
        farthest = int(np.argmax(distances))
        center = center + (pts[farthest] - center) / (k + 1.0)
    radius = float(np.max(np.linalg.norm(pts - center, axis=1)))
    return Ball(center=center, radius=radius)


def _synthetic_meb(n: int, d: int, seed: int) -> MinimumEnclosingBall:
    from ..workloads import uniform_ball_points

    return MinimumEnclosingBall(uniform_ball_points(n, d, seed=seed))


MinimumEnclosingBall.family = ProblemFamily(
    name="meb",
    aliases=("minimum_enclosing_ball",),
    cls=MinimumEnclosingBall,
    constraint_arrays=(("points", 2),),
    options=(("tolerance", float),),
    synthetic=_synthetic_meb,
)
