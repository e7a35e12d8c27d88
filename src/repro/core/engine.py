"""The model-agnostic Clarkson iteration engine (Algorithm 1).

The paper's central observation is that ONE meta-algorithm — Clarkson-style
iterative reweighting with an ``n^{1/r}`` boost — instantiates in the
sequential, multi-pass streaming, coordinator, and MPC models; only the
*substrate* (how a weighted sample is drawn and how constraint weights are
represented) changes between models.  This module owns that shared loop::

    repeat:
        sample  <- draw ~n^{1/r} constraints proportionally to their weights
        basis   <- solve the LP-type problem on the sample
        V       <- constraints violating the basis witness
        if V is empty:            terminate with the basis
        if w(V) <= eps * w(S):    multiply the weights of V by n^{1/r}

and delegates everything model-specific to two narrow interfaces:

* :class:`SamplingStrategy` — how one weighted eps-net sample is obtained
  (a Gumbel top-k draw from an explicit vector, a reservoir pass over a
  stream, a multinomial split across coordinator sites, or MPC tree rounds);
* :class:`WeightSubstrate` — how the weights live (an explicit vector, or
  implicitly as the stored bases of successful iterations) and how the
  success test ``w(V)/w(S) <= eps`` is measured.

Each computation model is one :class:`~repro.core.clarkson.ClarksonModel`,
which implements both, and the engine talks to that one object: it reads
the run's problem from ``model.problem`` and calls the model's ``draw``,
``measure`` and ``boost``.  The pass/round/communication accounting happens
inside those three, so the engine itself never needs to know which model it
is running in.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from .context import solve_context
from .exceptions import InvalidConfigError, IterationLimitError
from .lptype import BasisResult, LPTypeProblem
from .result import IterationRecord

if TYPE_CHECKING:  # pragma: no cover - clarkson imports this module
    from .clarkson import ClarksonModel

__all__ = [
    "ViolationStats",
    "SamplingStrategy",
    "WeightSubstrate",
    "EngineConfig",
    "EngineOutcome",
    "ClarksonEngine",
    "iteration_budget",
]


def iteration_budget(problem: LPTypeProblem, r: int, max_iterations: Optional[int]) -> int:
    """Iteration budget shared by all four models.

    An explicit ``max_iterations`` wins; ``None`` falls back to a generous
    version of the ``O(nu * r)`` bound of Lemma 3.3.  Non-positive values are
    rejected loudly (historically they fell through to the default via
    truthiness, silently ignoring the caller's budget).
    """
    if max_iterations is None:
        return 40 * problem.combinatorial_dimension * r + 40
    if int(max_iterations) < 1:
        raise InvalidConfigError(
            f"max_iterations must be >= 1 or None (got {max_iterations!r})"
        )
    return int(max_iterations)


@dataclass(frozen=True)
class ViolationStats:
    """Outcome of the per-iteration violation measurement (success test input).

    ``context`` is an opaque, model-specific payload carried from
    :meth:`WeightSubstrate.measure` to :meth:`WeightSubstrate.boost` (e.g.
    the violator index array for explicit weights, or the per-site violator
    positions in the coordinator model).
    """

    num_violators: int
    weight_fraction: float
    context: Any = None


class SamplingStrategy(abc.ABC):
    """Draws one weighted eps-net sample per iteration.

    Implementations perform whatever model bookkeeping the draw costs (a
    streaming pass, two coordinator rounds, MPC tree rounds, ...) as a side
    effect; the engine only sees the resulting index array.
    """

    @abc.abstractmethod
    def draw(self, sample_size: int) -> np.ndarray:
        """Return distinct constraint indices sampled proportionally to weight."""


class WeightSubstrate(abc.ABC):
    """Represents the constraint weights and the Algorithm 1 success test."""

    @abc.abstractmethod
    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        """Measure the violators of ``basis`` and their weight fraction.

        Implementations account the model cost of the measurement (the
        verification pass / violation round / aggregation trees) and may
        stash model-specific state in :attr:`ViolationStats.context`.
        """

    @abc.abstractmethod
    def boost(self, stats: ViolationStats) -> None:
        """Apply the ``n^{1/r}`` boost to the violators of a successful iteration."""


@dataclass(frozen=True)
class EngineConfig:
    """Resolved per-run parameters of the engine loop.

    ``sample_size`` and ``epsilon`` come from
    :func:`repro.core.clarkson.resolve_sampling`, ``budget`` from
    :func:`iteration_budget`; :func:`repro.core.clarkson.run_clarkson`
    resolves them once per run, so all four models agree on the sampling
    regime.
    """

    sample_size: int
    epsilon: float
    budget: int
    keep_trace: bool = True
    name: str = "clarkson"


@dataclass
class EngineOutcome:
    """What the engine loop produced: the final basis plus the iteration story."""

    basis: BasisResult
    iterations: int
    successful_iterations: int
    trace: list[IterationRecord] = field(default_factory=list)
    #: Always 0: the engine solves every sample afresh.  The two counters
    #: stay only because ``perfbench/tracing.py`` reads them for its
    #: ``engine.cache_hit_ratio`` metric; they go with that metric.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Witnesses of the bases of successful iterations, in order.  This is
    #: the run's weight state in its model-independent form (Section 3.2:
    #: the weight of a constraint is ``boost ** #violated-stored-bases``);
    #: the session API carries it between solves to warm-start re-solves.
    successful_witnesses: list[Any] = field(default_factory=list)


class ClarksonEngine:
    """Owns the Algorithm 1 loop; the run's model supplies draw/measure/boost.

    The engine guarantees identical iteration semantics across models: the
    same success test, the same trace records, the same termination rule
    (empty violator set) and the same budget handling.  Resource accounting
    is entirely the model's business.
    """

    def __init__(self, model: "ClarksonModel", config: EngineConfig) -> None:
        self.model = model
        self.problem = model.problem
        self.config = config

    def run(self) -> EngineOutcome:
        config = self.config
        trace: list[IterationRecord] = []
        successful = 0
        successful_witnesses: list[Any] = []
        final_basis: BasisResult | None = None
        iterations = 0
        # Per-request budget (if any): charged once per iteration so a
        # budgeted request aborts at an iteration boundary.  Unbudgeted
        # solves see a single ``None`` check per iteration.  The progress
        # tap (if any) is the service front end's SSE feed.
        model = self.model
        context = solve_context()
        meter = context.meter
        tap = context.tap

        for iteration in range(config.budget):
            if meter is not None:
                meter.charge_iteration()
            sample = model.draw(config.sample_size)
            basis = self.problem.solve_subset(sample)
            stats = model.measure(sample, basis)
            success = stats.weight_fraction <= config.epsilon
            if tap is not None:
                tap.emit(
                    "iteration",
                    iteration=iteration,
                    sample_size=int(len(sample)),
                    num_violators=int(stats.num_violators),
                    violator_weight_fraction=float(stats.weight_fraction),
                    successful=bool(success),
                )
            if config.keep_trace:
                trace.append(
                    IterationRecord(
                        iteration=iteration,
                        sample_size=int(len(sample)),
                        num_violators=int(stats.num_violators),
                        violator_weight_fraction=float(stats.weight_fraction),
                        successful=success,
                        basis_indices=basis.indices,
                    )
                )
            if stats.num_violators == 0:
                final_basis = basis
                iterations = iteration + 1
                break
            if success:
                model.boost(stats)
                successful += 1
                successful_witnesses.append(basis.witness)
        else:
            raise IterationLimitError(
                f"{config.name} did not terminate within {config.budget} iterations "
                f"(n={self.problem.num_constraints}); this is astronomically "
                "unlikely for a correct problem implementation"
            )

        assert final_basis is not None
        return EngineOutcome(
            basis=final_basis,
            iterations=iterations,
            successful_iterations=successful,
            trace=trace,
            successful_witnesses=successful_witnesses,
        )
