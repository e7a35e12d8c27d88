"""Synthetic workload generators for experiments, tests, and examples."""

from .classification import (
    ClassificationData,
    linear_separability_lp,
    make_separable_classification,
    svm_problem,
)
from .geometry_clouds import (
    clustered_points,
    meb_problem,
    sphere_surface_points,
    uniform_ball_points,
)
from .lp_instances import (
    LPInstance,
    degenerate_lp,
    infeasible_lp,
    random_feasible_lp,
    random_polytope_lp,
)
from .regression import RegressionData, chebyshev_regression_lp, make_regression_data
from .streams import blocked_order, identity_order, random_order, sorted_by_tightness_order
from .transport_probe import blas_threads_task, transport_probe_task, transport_ready_task

__all__ = [
    "ClassificationData",
    "linear_separability_lp",
    "make_separable_classification",
    "svm_problem",
    "clustered_points",
    "meb_problem",
    "sphere_surface_points",
    "uniform_ball_points",
    "LPInstance",
    "degenerate_lp",
    "infeasible_lp",
    "random_feasible_lp",
    "random_polytope_lp",
    "RegressionData",
    "chebyshev_regression_lp",
    "make_regression_data",
    "blocked_order",
    "identity_order",
    "random_order",
    "sorted_by_tightness_order",
    "blas_threads_task",
    "transport_probe_task",
    "transport_ready_task",
]
