"""Sequential reference implementation of the meta-algorithm (Algorithm 1).

This is the in-memory binding of the shared :class:`~repro.core.engine.ClarksonEngine`:
Clarkson's iterative reweighting scheme driven by eps-net sampling with
weight boost ``n^{1/r}``, with the weights held as an explicit vector and the
sample drawn directly from it.  The streaming, coordinator and MPC drivers in
``repro.algorithms`` bind the *same* engine onto their model substrates; this
module is the ground truth the others are tested against.  Users who just
want to solve an LP-type problem on one machine with sub-linear working
memory reach it through ``repro.solve(problem, model="sequential")``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import kernels
from .engine import (
    ClarksonEngine,
    EngineConfig,
    ExplicitWeightSubstrate,
    InMemorySampling,
    ViolationOracle,
    iteration_budget,
)
from .epsnet import EpsNetSpec
from .lptype import LPTypeProblem
from .result import ResourceUsage, SolveResult, WarmStats
from .rng import as_generator
from .weights import ExplicitWeights, boost_factor

if TYPE_CHECKING:  # pragma: no cover - api.config imports this module
    from ..api.config import SolverConfig

__all__ = [
    "solve_small_problem",
    "resolve_sampling",
]


def resolve_sampling(
    problem: LPTypeProblem, config: "SolverConfig"
) -> tuple[int, float]:
    """Resolve the eps-net sample size and success threshold for a run.

    Returns ``(sample_size, success_threshold)``, honouring the explicit
    overrides in ``config`` and otherwise using the paper's Lemma 2.2 bound
    and the Algorithm 1 epsilon.  Shared by the sequential, streaming,
    coordinator, and MPC drivers so the four agree on the sampling regime.
    """
    n = problem.num_constraints
    nu = problem.combinatorial_dimension
    spec = EpsNetSpec.for_algorithm(
        num_constraints=n,
        combinatorial_dimension=nu,
        vc_dimension=problem.vc_dimension,
        r=config.r,
        failure_probability=config.failure_probability,
        sample_scale=config.sample_scale,
    )
    sample_size = config.sample_size if config.sample_size is not None else spec.sample_size()
    sample_size = max(1, min(int(sample_size), n))
    threshold = (
        config.success_threshold if config.success_threshold is not None else spec.epsilon
    )
    return sample_size, float(threshold)


def solve_small_problem(problem: LPTypeProblem) -> SolveResult:
    """Solve a problem outright when sampling would cover the whole ground set."""
    basis = problem.solve()
    return SolveResult(
        value=basis.value,
        witness=basis.witness,
        basis_indices=basis.indices,
        iterations=1,
        successful_iterations=1,
        resources=ResourceUsage(space_peak_items=problem.num_constraints),
        metadata={"algorithm": "direct"},
    )


def _warm_stats(
    warm_witnesses: list | None, outcome_witnesses: list
) -> WarmStats | None:
    """The ``SolveResult.warm`` record of one session-tracked run.

    ``warm_witnesses is None`` means "not a session solve" — no record.  An
    empty list means the session's first (cold) solve: numerically identical
    to a plain solve, but the witness state is tracked for later re-solves.
    """
    if warm_witnesses is None:
        return None
    return WarmStats(
        warm_start=bool(warm_witnesses),
        reused_bases=len(warm_witnesses),
        new_bases=len(outcome_witnesses),
        witnesses=list(warm_witnesses) + list(outcome_witnesses),
    )


def _clarkson_solve(
    problem: LPTypeProblem,
    config: "SolverConfig",
    warm_witnesses: list | None = None,
) -> SolveResult:
    """Sequential meta-algorithm (Algorithm 1).

    The driver behind ``repro.solve(problem, model="sequential")`` (its
    runner and warm runner) and the baselines; ``config.seed`` controls all
    randomness of the run.  ``resources`` records the peak number of
    constraints materialised at once (the eps-net sample plus the stored
    bases), which is the quantity Theorem 1 bounds in the streaming model.
    ``warm_witnesses`` (session API) seeds the weight vector from a prior
    run's successful-iteration bases: constraint ``i`` starts at
    ``boost ** #violated-witnesses`` instead of 1, exactly the implicit
    weight it would carry had the prior iterations happened in this run.
    """
    gen = as_generator(config.seed)
    n = problem.num_constraints

    if n == 0:
        raise ValueError("problem has no constraints")

    with kernels.use_backend(config.kernel_backend) as backend:
        sample_size, epsilon = resolve_sampling(problem, config)
        if sample_size >= n:
            # The eps-net would contain every constraint; solve directly.
            result = solve_small_problem(problem)
            result.metadata.update(
                {"r": config.r, "sample_size": sample_size, "kernel_backend": backend}
            )
            result.warm = _warm_stats(warm_witnesses, [])
            return result

        boost = config.boost if config.boost is not None else boost_factor(n, config.r)
        oracle = ViolationOracle(problem)
        if warm_witnesses:
            # One vectorised sweep recovers the carried weight state (counted
            # against the oracle like any other violation evaluation).
            exponents = oracle.count_matrix(warm_witnesses, problem.all_indices())
            weights = ExplicitWeights.from_exponents(exponents, boost)
        else:
            weights = ExplicitWeights.uniform(n, boost)
        substrate = ExplicitWeightSubstrate(problem, weights, oracle=oracle)
        engine = ClarksonEngine(
            problem=problem,
            sampler=InMemorySampling(weights, gen),
            substrate=substrate,
            config=EngineConfig(
                sample_size=sample_size,
                epsilon=epsilon,
                budget=iteration_budget(problem, config.r, config.max_iterations),
                keep_trace=config.keep_trace,
                name="Algorithm 1",
                basis_cache=config.basis_cache,
            ),
        )
        outcome = engine.run()

    return SolveResult(
        value=outcome.basis.value,
        witness=outcome.basis.witness,
        basis_indices=outcome.basis.indices,
        iterations=outcome.iterations,
        successful_iterations=outcome.successful_iterations,
        resources=ResourceUsage(
            space_peak_items=substrate.peak_items,
            oracle_calls=oracle.calls,
            basis_cache_hits=outcome.cache_hits,
            basis_cache_misses=outcome.cache_misses,
        ),
        trace=outcome.trace,
        metadata={
            "algorithm": "clarkson_sequential",
            "r": config.r,
            "epsilon": epsilon,
            "sample_size": sample_size,
            "boost": boost,
            "kernel_backend": backend,
        },
        warm=_warm_stats(warm_witnesses, outcome.successful_witnesses),
    )
