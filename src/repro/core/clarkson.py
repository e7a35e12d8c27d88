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

from dataclasses import dataclass
from typing import Optional

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
from .rng import SeedLike, as_generator
from .weights import ExplicitWeights, boost_factor

__all__ = [
    "ClarksonParameters",
    "solve_small_problem",
    "practical_parameters",
    "resolve_sampling",
]


@dataclass(frozen=True)
class ClarksonParameters:
    """Tunable parameters of Algorithm 1.

    Attributes
    ----------
    r:
        The pass/round trade-off parameter.  Larger ``r`` means smaller
        samples (``~ n^{1/r}``) but more iterations (``O(nu * r)``).
    sample_scale:
        Multiplier on the Lemma 2.2 sample size; ``1.0`` is the paper's
        bound, smaller values explore the practical trade-off (used by the
        ablation benchmark A1/A2).
    failure_probability:
        Per-iteration eps-net failure probability (``1/3`` for the Las-Vegas
        variant of the paper).
    boost:
        Weight multiplier applied to violators after a successful iteration.
        ``None`` (default) uses the paper's ``n^{1/r}``; the ablation
        benchmark passes ``2.0`` to recover Clarkson's classical reweighting.
    max_iterations:
        Hard iteration budget.  ``None`` derives ``40 * nu * r + 40`` from
        the Lemma 3.3 bound (with a generous constant).
    keep_trace:
        Whether to record an :class:`IterationRecord` per iteration.
    basis_cache:
        Whether the engine memoises basis solves of repeated index sets
        (per-run cache; see :class:`repro.core.engine.BasisCache`).
    sample_size:
        Explicit eps-net sample size.  ``None`` (default) uses the
        Haussler-Welzl bound of Lemma 2.2 with the paper's constants; the
        "practical profile" (:func:`practical_parameters`) sets this to a
        constant-free ``Theta(nu^2 * r * n^{1/r})`` value so that the
        sub-linear regime is reachable on laptop-sized inputs.
    success_threshold:
        Explicit success-test threshold on ``w(V)/w(S)``.  ``None`` uses the
        paper's ``epsilon = 1/(10 nu n^{1/r})``.
    kernel_backend:
        Kernel backend the run executes on (``None`` defers to
        ``REPRO_KERNEL_BACKEND`` and then the registry default; see
        :mod:`repro.kernels`).
    """

    r: int = 2
    sample_scale: float = 1.0
    failure_probability: float = 1.0 / 3.0
    boost: Optional[float] = None
    max_iterations: Optional[int] = None
    keep_trace: bool = True
    basis_cache: bool = True
    sample_size: Optional[int] = None
    success_threshold: Optional[float] = None
    kernel_backend: Optional[str] = None


def resolve_sampling(
    problem: LPTypeProblem, params: ClarksonParameters
) -> tuple[int, float]:
    """Resolve the eps-net sample size and success threshold for a run.

    Returns ``(sample_size, success_threshold)``, honouring the explicit
    overrides in ``params`` and otherwise using the paper's Lemma 2.2 bound
    and the Algorithm 1 epsilon.  Shared by the sequential, streaming,
    coordinator, and MPC drivers so the four agree on the sampling regime.
    """
    n = problem.num_constraints
    nu = problem.combinatorial_dimension
    spec = EpsNetSpec.for_algorithm(
        num_constraints=n,
        combinatorial_dimension=nu,
        vc_dimension=problem.vc_dimension,
        r=params.r,
        failure_probability=params.failure_probability,
        sample_scale=params.sample_scale,
    )
    sample_size = params.sample_size if params.sample_size is not None else spec.sample_size()
    sample_size = max(1, min(int(sample_size), n))
    threshold = (
        params.success_threshold if params.success_threshold is not None else spec.epsilon
    )
    return sample_size, float(threshold)


def practical_parameters(
    problem: LPTypeProblem,
    r: int = 2,
    safety: float = 4.0,
    keep_trace: bool = True,
    max_iterations: Optional[int] = None,
) -> ClarksonParameters:
    """Constant-free parameters that keep the paper's asymptotics.

    The Lemma 2.2 constants (``8 * lambda / eps * log(...)`` with
    ``eps = 1/(10 nu n^{1/r})``) put the sub-linear sampling regime out of
    reach for inputs below ~10^7 constraints.  This profile keeps the same
    scaling but replaces the constants with Clarkson's random-sampling bound:

    * success threshold ``eps = ln(n) / (2 * nu * r * n^{1/r})`` — still small
      enough that the Lemma 3.3 argument bounds the successful iterations by
      ``O(nu * r)``;
    * sample size ``m = safety * nu / eps`` — by Clarkson's sampling lemma the
      expected violator weight fraction of an ``m``-sample is at most
      ``nu / (m - nu)``, so an iteration succeeds with constant probability.

    Used by the examples and by every benchmark; the paper-exact profile
    (``ClarksonParameters()``) remains the default of the solvers.
    """
    import math

    n = problem.num_constraints
    nu = problem.combinatorial_dimension
    if r < 1:
        raise ValueError("r must be >= 1")
    epsilon = math.log(max(3, n)) / (2.0 * nu * r * n ** (1.0 / r))
    epsilon = min(0.45, epsilon)
    sample_size = int(math.ceil(safety * nu / epsilon)) + nu
    return ClarksonParameters(
        r=r,
        keep_trace=keep_trace,
        max_iterations=max_iterations,
        sample_size=min(sample_size, n),
        success_threshold=epsilon,
    )


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
    params: ClarksonParameters | None = None,
    rng: SeedLike = None,
    warm_witnesses: list | None = None,
) -> SolveResult:
    """Sequential meta-algorithm (Algorithm 1).

    The driver behind ``repro.solve(problem, model="sequential")`` and the
    baselines.  ``params`` defaults to :class:`ClarksonParameters()` and
    ``rng`` controls all randomness of the run.  ``resources`` records the
    peak number of constraints materialised at once (the eps-net sample plus
    the stored bases), which is the quantity Theorem 1 bounds in the
    streaming model.  ``warm_witnesses`` (session API) seeds the weight
    vector from a prior run's successful-iteration bases: constraint ``i``
    starts at ``boost ** #violated-witnesses`` instead of 1, exactly the
    implicit weight it would carry had the prior iterations happened in this
    run.
    """
    params = params or ClarksonParameters()
    gen = as_generator(rng)
    n = problem.num_constraints

    if n == 0:
        raise ValueError("problem has no constraints")

    with kernels.use_backend(params.kernel_backend) as backend:
        sample_size, epsilon = resolve_sampling(problem, params)
        if sample_size >= n:
            # The eps-net would contain every constraint; solve directly.
            result = solve_small_problem(problem)
            result.metadata.update(
                {"r": params.r, "sample_size": sample_size, "kernel_backend": backend}
            )
            result.warm = _warm_stats(warm_witnesses, [])
            return result

        boost = params.boost if params.boost is not None else boost_factor(n, params.r)
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
                budget=iteration_budget(problem, params.r, params.max_iterations),
                keep_trace=params.keep_trace,
                name="Algorithm 1",
                basis_cache=params.basis_cache,
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
            "r": params.r,
            "epsilon": epsilon,
            "sample_size": sample_size,
            "boost": boost,
            "kernel_backend": backend,
        },
        warm=_warm_stats(warm_witnesses, outcome.successful_witnesses),
    )
