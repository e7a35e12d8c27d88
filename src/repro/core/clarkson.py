"""Algorithm 1, run once for every computation model.

The paper's meta-algorithm (Clarkson's iterative reweighting driven by
eps-net sampling with weight boost ``n^{1/r}``) runs unchanged in the
sequential, streaming, coordinator and MPC models (Theorems 1-3); only how
the weights are stored, sampled and measured changes.  :func:`run_clarkson`
is that one run.  It decides the sample size, the success threshold and the
boost, solves instances too small to sample outright, builds and runs the
:class:`~repro.core.engine.ClarksonEngine`, releases the model's nodes, and
assembles the :class:`~repro.core.result.SolveResult`.

A model is one :class:`ClarksonModel` subclass: its state, its ``draw`` /
``measure`` / ``boost``, what its direct solve pays, and the metadata it
reports.  :class:`SequentialModel` below is the in-memory binding and the
ground truth the others are tested against; the streaming, coordinator and
MPC models live in ``repro.algorithms``.  Users reach every model through
``repro.solve(problem, model=...)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .. import kernels
from .engine import (
    ClarksonEngine,
    EngineConfig,
    EngineOutcome,
    SamplingStrategy,
    ViolationStats,
    WeightSubstrate,
    iteration_budget,
)
from .epsnet import EpsNetSpec
from .lptype import BasisResult, LPTypeProblem
from .result import ResourceUsage, SolveResult, WarmStats
from .rng import as_generator
from .sampling import gumbel_top_k
from .weights import ExplicitWeights, boost_factor

if TYPE_CHECKING:  # pragma: no cover - api.config imports this module
    from ..api.config import SolverConfig

__all__ = [
    "ClarksonModel",
    "SequentialModel",
    "run_clarkson",
    "solve_small_problem",
    "resolve_sampling",
]


def resolve_sampling(
    problem: LPTypeProblem, config: "SolverConfig"
) -> tuple[int, float]:
    """Resolve the eps-net sample size and success threshold for a run.

    Returns ``(sample_size, success_threshold)``, honouring the explicit
    overrides in ``config`` and otherwise using the paper's Lemma 2.2 bound
    and the Algorithm 1 epsilon.  :func:`run_clarkson` resolves it once for
    every model, so the four agree on the sampling regime.
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


class ClarksonModel(SamplingStrategy, WeightSubstrate):
    """One computation model's binding of Algorithm 1, for one run.

    A subclass holds the model's state and implements the engine's ``draw``,
    ``measure`` and ``boost``.  Everything a result depends on beyond those
    is data on the class: the engine ``name``, the ``algorithm`` tag of an
    engine run and of a direct solve, the metadata keys of each, and (per
    instance) ``always_direct``.  :func:`run_clarkson` does the rest.

    ``warm`` holds the successful-iteration witnesses a warm re-solve starts
    from (empty for a cold run); ``rng`` is the run's generator and
    ``oracle_calls`` counts the vectorised violation evaluations the run
    reports as ``ResourceUsage.oracle_calls``.  The fabric models evaluate
    inside node tasks, possibly in another process, and add those
    evaluations here from the coordinator side.
    """

    #: The engine's name in ``IterationLimitError`` messages.
    name: str
    #: ``metadata["algorithm"]`` of an engine run and of a direct solve.
    algorithm: str
    direct_algorithm: str
    #: The metadata keys of an engine run and of a direct solve, in order.
    run_metadata: tuple[str, ...]
    direct_metadata: tuple[str, ...]
    #: Whether every instance is solved directly (MPC on one machine).
    always_direct = False
    #: The fabric topology the run's nodes live on, if the model has one.
    topology: Any = None

    def __init__(
        self,
        problem: LPTypeProblem,
        config: "SolverConfig",
        warm_witnesses: list | None,
    ) -> None:
        self.problem = problem
        self.config = config
        self.warm = list(warm_witnesses) if warm_witnesses else []
        self.rng = as_generator(config.seed)
        self.oracle_calls = 0

    def install(self, boost: float, backend: str) -> None:
        """Build the weight state and install the nodes for an engine run."""

    def pay_direct(self) -> None:
        """Charge what solving the whole instance at once costs the model
        (installing only the node state that costs it reads)."""

    def warm_exponents(self):
        """Per-constraint count of violated warm witnesses, or ``None`` cold.

        One vectorised sweep recovers the carried weight state (counted in
        ``oracle_calls`` like any other violation evaluation).
        """
        if not self.warm:
            return None
        self.oracle_calls += 1
        return self.problem.violation_count_matrix(self.warm, self.problem.all_indices())

    def usage(self) -> ResourceUsage:
        """The run's costs in the model's currencies."""
        return self.topology.usage()

    def metadata(self) -> dict[str, Any]:
        """Model-specific metadata values, picked by the metadata keys."""
        if self.topology is None:
            return {}
        return {"transport": self.topology.transport.name}

    def release(self) -> None:
        """Drop the run's node states (and a run-private transport)."""
        if self.topology is not None:
            self.topology.close()


class SequentialModel(ClarksonModel):
    """The in-memory binding: an explicit weight vector and a direct draw.

    This is the ground truth the other models are tested against.  ``draw``
    is a Gumbel top-k on the log-space weights, so no ``O(n)`` exponentiated
    copy of the weights is materialised per draw; ``measure`` is one fused
    violation sweep over all constraints; ``boost`` multiplies the
    violators' weights.  ``resources.space_peak_items`` records the peak
    number of constraints materialised at once (the eps-net sample plus the
    stored bases), the quantity Theorem 1 bounds in the streaming model.
    """

    name = "Algorithm 1"
    algorithm = "clarkson_sequential"
    direct_algorithm = "direct"
    run_metadata = (
        "algorithm", "r", "epsilon", "sample_size", "boost", "kernel_backend",
    )
    direct_metadata = ("algorithm", "r", "sample_size", "kernel_backend")
    peak_items = 0
    _boosts = 0

    def install(self, boost: float, backend: str) -> None:
        exponents = self.warm_exponents()
        if exponents is None:
            self.weights = ExplicitWeights.uniform(self.problem.num_constraints, boost)
        else:
            self.weights = ExplicitWeights.from_exponents(exponents, boost)

    def draw(self, sample_size: int) -> np.ndarray:
        return gumbel_top_k(self.weights.log_weights, sample_size, rng=self.rng)

    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        # One fused sweep replaces the historical mask -> sort-indices ->
        # gather-weights -> sum sequence.  Weights go in as logs plus the
        # max shift: blocked backends exponentiate cache-resident blocks
        # inside the sweep, so no full scaled vector is ever materialised
        # on the per-iteration path.
        log_weights = self.weights.log_weights
        self.oracle_calls += 1
        stats = self.problem.violation_sweep(
            basis.witness,
            None,
            need_total=True,
            log_weights=log_weights,
            log_shift=float(log_weights.max()),
        )
        self.peak_items = max(
            self.peak_items,
            len(sample) + (self._boosts + 1) * self.problem.combinatorial_dimension,
        )
        fraction = (
            stats.violated_weight / stats.total_weight if stats.count else 0.0
        )
        return ViolationStats(
            num_violators=int(stats.count),
            weight_fraction=float(fraction),
            context=stats.mask,
        )

    def boost(self, stats: ViolationStats) -> None:
        # ``context`` is the violation mask; materialise indices only on the
        # (success) iterations that actually boost.
        self.weights.multiply(np.flatnonzero(stats.context))
        self._boosts += 1

    def usage(self) -> ResourceUsage:
        return ResourceUsage(space_peak_items=self.peak_items)


def run_clarkson(
    problem: LPTypeProblem,
    config: "SolverConfig",
    warm_witnesses: list | None = None,
    *,
    model: type[ClarksonModel],
) -> SolveResult:
    """Algorithm 1 in one computation model: the runner of every theorem model.

    The registry binds ``model`` (``partial(run_clarkson, model=...)``);
    ``config.seed`` controls all randomness of the run.
    ``warm_witnesses`` (session API) seeds the weight state from a prior
    run's successful-iteration bases: constraint ``i`` starts at
    ``boost ** #violated-witnesses`` instead of 1, exactly the weight it
    would carry had those iterations happened in this run, and
    ``result.warm`` records the reuse.  The model's nodes are released on
    every path, failures included.
    """
    n = problem.num_constraints
    if n == 0:
        raise ValueError("problem has no constraints")
    run = model(problem, config, warm_witnesses)
    config = run.config
    try:
        with kernels.use_backend(config.kernel_backend) as backend:
            sample_size, epsilon = resolve_sampling(problem, config)
            boost = config.boost
            if boost is None:
                boost = boost_factor(n, config.r)
            # The eps-net would contain every constraint: solve directly.
            direct = sample_size >= n or run.always_direct
            if direct:
                run.pay_direct()
                outcome = EngineOutcome(
                    basis=problem.solve(), iterations=1, successful_iterations=1
                )
            else:
                run.install(boost, backend)
                budget = iteration_budget(problem, config.r, config.max_iterations)
                engine_config = EngineConfig(
                    sample_size=sample_size,
                    epsilon=epsilon,
                    budget=budget,
                    keep_trace=config.keep_trace,
                    name=run.name,
                )
                outcome = ClarksonEngine(run, engine_config).run()
    finally:
        run.release()

    resources = run.usage()
    if direct:
        # A direct solve holds every constraint at once and asks no oracle.
        resources.space_peak_items = n
    else:
        resources.oracle_calls = run.oracle_calls
    values = {
        "algorithm": run.direct_algorithm if direct else run.algorithm,
        "r": config.r,
        "epsilon": epsilon,
        "sample_size": sample_size,
        "boost": boost,
        "kernel_backend": backend,
        **run.metadata(),
    }
    return SolveResult(
        value=outcome.basis.value,
        witness=outcome.basis.witness,
        basis_indices=outcome.basis.indices,
        iterations=outcome.iterations,
        successful_iterations=outcome.successful_iterations,
        resources=resources,
        trace=outcome.trace,
        metadata={
            key: values[key]
            for key in (run.direct_metadata if direct else run.run_metadata)
        },
        warm=_warm_stats(warm_witnesses, outcome.successful_witnesses),
    )
