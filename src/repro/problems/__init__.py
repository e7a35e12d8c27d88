"""Concrete LP-type problems: LP, linear SVM, MEB, and generic convex QP.

Registering the classes here indexes their ``family`` descriptors, in order.
"""

from ..api.registry import register_problem
from .family import ProblemFamily
from .linear_program import DEFAULT_BOX_BOUND, LexicographicValue, LinearProgram
from .meb import Ball, MEBValue, MinimumEnclosingBall, badoiu_clarkson_meb
from .qp import ConvexQuadraticProgram, QPSolution, QPValue, minimize_convex_qp
from .seidel import SeidelResult, seidel_solve
from .solvers import LPSolution, lexicographic_minimum, solve_lp
from .svm import LinearSVM, SVMValue

register_problem(
    "linear_program",
    LinearProgram,
    description=(
        "Low-dimensional linear program min c'x s.t. Ax <= b, intersected "
        "with a bounding box (Theorem 4)."
    ),
    tags=("optimization", "lp"),
)
register_problem(
    "minimum_enclosing_ball",
    MinimumEnclosingBall,
    description=(
        "Minimum enclosing ball of a point set (Theorem 6; core vector "
        "machines)."
    ),
    tags=("geometry",),
)
register_problem(
    "linear_svm",
    LinearSVM,
    description=(
        "Hard-margin linear SVM over labelled points (Theorem 5; maximum "
        "margin separator)."
    ),
    tags=("learning",),
)
register_problem(
    "quadratic_program",
    ConvexQuadraticProgram,
    description=(
        "Convex quadratic program min (1/2) x'Qx + q'x s.t. Gx >= h (the "
        "generic form behind the SVM and MEB reductions)."
    ),
    tags=("optimization", "qp"),
)

__all__ = [
    "DEFAULT_BOX_BOUND",
    "LexicographicValue",
    "LinearProgram",
    "Ball",
    "MEBValue",
    "MinimumEnclosingBall",
    "badoiu_clarkson_meb",
    "ConvexQuadraticProgram",
    "QPSolution",
    "QPValue",
    "minimize_convex_qp",
    "ProblemFamily",
    "SeidelResult",
    "seidel_solve",
    "LPSolution",
    "lexicographic_minimum",
    "solve_lp",
    "LinearSVM",
    "SVMValue",
]
