"""repro — a reproduction of "Distributed and Streaming Linear Programming in Low Dimensions".

The library implements the paper's Clarkson-style meta-algorithm for LP-type
problems (driven by eps-net sampling), its instantiations in the multi-pass
streaming, coordinator, and MPC models, the concrete LP / linear-SVM /
minimum-enclosing-ball problems, and the communication lower-bound machinery
(two-curve intersection, Augmented Indexing, and the recursive hard
distributions).

The canonical entry point is the :func:`solve` facade: one call,
parameterized by a registered computation model and a typed
:class:`SolverConfig`.

Quick start::

    from repro import random_feasible_lp, solve

    instance = random_feasible_lp(num_constraints=5000, dimension=3, seed=0)
    result = solve(instance.problem, model="streaming", r=2, seed=0)
    print(result.value.objective, result.resources.passes)

Cross-model comparisons and batches::

    from repro import compare_models, solve_many

    by_model = compare_models(instance.problem, seed=0)     # the 4 theorems
    batch = solve_many([instance.problem] * 10, model="mpc", root_seed=0)
    print(batch.resources_total().rounds)

``available_models()`` / ``describe_model(name)`` introspect the registry.
Per-solve request state — budget meter, progress tap, fault plan —
travels in one :class:`~repro.core.context.SolveContext`,
installed with :func:`~repro.core.context.solve_scope`.
"""

from .algorithms import (
    chan_chen_2d_streaming,
    chan_chen_pass_count,
    clarkson_classic_reweighting,
    clarkson_pass_count,
    exact_in_memory,
    machines_for_load,
    ship_all_coordinator,
    single_pass_full_memory_streaming,
)
from .api import (
    BatchResult,
    CoordinatorConfig,
    IngestHandle,
    MPCConfig,
    ModelSpec,
    ProblemSpec,
    Session,
    SessionPool,
    SessionSpec,
    SolverConfig,
    SolverService,
    StreamingConfig,
    Ticket,
    TransportConfig,
    WarmState,
    available_models,
    available_problems,
    compare_models,
    describe_model,
    describe_problem,
    register_model,
    register_problem,
    solve,
    solve_many,
)
from .api.session import session
from .core import (
    BasisResult,
    CommunicationSummary,
    LPTypeProblem,
    SolveResult,
)
from .core.budget import ResourceBudget
from .core.exceptions import (
    BudgetExceededError,
    ConfigFieldDroppedWarning,
    SessionError,
)
from .core.result import WarmStats
from .lower_bounds import (
    AugIndexInstance,
    TCIInstance,
    aug_index_to_tci,
    interactive_tci_protocol,
    one_round_tci_protocol,
    sample_hard_instance,
    tci_to_linear_program,
)
from .problems import (
    LinearProgram,
    LinearSVM,
    MinimumEnclosingBall,
    badoiu_clarkson_meb,
    seidel_solve,
)
from .workloads import (
    chebyshev_regression_lp,
    make_regression_data,
    make_separable_classification,
    random_feasible_lp,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

__version__ = "1.1.0"

__all__ = [
    "BatchResult",
    "BudgetExceededError",
    "ConfigFieldDroppedWarning",
    "CoordinatorConfig",
    "IngestHandle",
    "MPCConfig",
    "ModelSpec",
    "ProblemSpec",
    "ResourceBudget",
    "Session",
    "SessionError",
    "SessionPool",
    "SessionSpec",
    "SolverConfig",
    "SolverService",
    "StreamingConfig",
    "Ticket",
    "TransportConfig",
    "WarmState",
    "WarmStats",
    "session",
    "available_models",
    "available_problems",
    "compare_models",
    "describe_model",
    "describe_problem",
    "register_model",
    "register_problem",
    "solve",
    "solve_many",
    "chan_chen_2d_streaming",
    "chan_chen_pass_count",
    "clarkson_classic_reweighting",
    "clarkson_pass_count",
    "exact_in_memory",
    "machines_for_load",
    "ship_all_coordinator",
    "single_pass_full_memory_streaming",
    "BasisResult",
    "CommunicationSummary",
    "LPTypeProblem",
    "SolveResult",
    "AugIndexInstance",
    "TCIInstance",
    "aug_index_to_tci",
    "interactive_tci_protocol",
    "one_round_tci_protocol",
    "sample_hard_instance",
    "tci_to_linear_program",
    "LinearProgram",
    "LinearSVM",
    "MinimumEnclosingBall",
    "badoiu_clarkson_meb",
    "seidel_solve",
    "chebyshev_regression_lp",
    "make_regression_data",
    "make_separable_classification",
    "random_feasible_lp",
    "random_polytope_lp",
    "svm_problem",
    "uniform_ball_points",
    "__version__",
]
