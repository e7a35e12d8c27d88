"""Core machinery: LP-type problems, eps-nets, weights, and the meta-algorithm."""

from .accounting import BitCostModel, RoundLedger
from .clarkson import ClarksonModel, resolve_sampling, run_clarkson, solve_small_problem
from .engine import (
    ClarksonEngine,
    EngineConfig,
    EngineOutcome,
    SamplingStrategy,
    ViolationStats,
    WeightSubstrate,
    iteration_budget,
)
from .epsnet import EpsNetSpec, algorithm_epsilon, epsnet_sample_size, is_eps_net
from .exceptions import (
    CommunicationError,
    InfeasibleProblemError,
    InvalidConfigError,
    InvalidInstanceError,
    IterationLimitError,
    ProtocolError,
    RegistryError,
    ReproError,
    SolverError,
    UnboundedProblemError,
)
from .lptype import BasisResult, LPTypeProblem
from .result import CommunicationSummary, IterationRecord, ResourceUsage, SolveResult
from .rng import as_generator, derive_seed, spawn
from .sampling import (
    multinomial_split,
    normalise_weights,
    weighted_sample_without_replacement,
)
from .weights import ExplicitWeights, boost_factor

__all__ = [
    "BitCostModel",
    "RoundLedger",
    "ClarksonModel",
    "resolve_sampling",
    "run_clarkson",
    "solve_small_problem",
    "ClarksonEngine",
    "EngineConfig",
    "EngineOutcome",
    "SamplingStrategy",
    "ViolationStats",
    "WeightSubstrate",
    "iteration_budget",
    "EpsNetSpec",
    "algorithm_epsilon",
    "epsnet_sample_size",
    "is_eps_net",
    "CommunicationError",
    "InfeasibleProblemError",
    "InvalidConfigError",
    "InvalidInstanceError",
    "IterationLimitError",
    "ProtocolError",
    "RegistryError",
    "ReproError",
    "SolverError",
    "UnboundedProblemError",
    "BasisResult",
    "LPTypeProblem",
    "IterationRecord",
    "ResourceUsage",
    "CommunicationSummary",
    "SolveResult",
    "as_generator",
    "derive_seed",
    "spawn",
    "multinomial_split",
    "normalise_weights",
    "weighted_sample_without_replacement",
    "ExplicitWeights",
    "boost_factor",
]
