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

and delegates everything model-specific to three narrow strategy interfaces:

* :class:`SamplingStrategy` — how one weighted eps-net sample is obtained
  (in-memory weighted draw, a reservoir pass over a stream, a multinomial
  split across coordinator sites, or MPC tree rounds);
* :class:`WeightSubstrate` — how the weights live (an explicit vector, or
  implicitly as the stored bases of successful iterations) and how the
  success test ``w(V)/w(S) <= eps`` is measured;
* :class:`ViolationOracle` — vectorised violation tests against one
  problem, so no strategy ever calls ``problem.violates`` in a Python loop.

The four drivers (``repro.core.clarkson`` and ``repro.algorithms.*``) are
thin bindings of model substrates onto this engine; their pass/round/
communication accounting happens inside their strategy objects, so the
engine itself never needs to know which model it is running in.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .context import solve_context
from .exceptions import InvalidConfigError, IterationLimitError
from .lptype import BasisResult, LPTypeProblem
from .result import IterationRecord
from .sampling import gumbel_top_k
from .weights import ExplicitWeights

__all__ = [
    "ViolationOracle",
    "ViolationStats",
    "SamplingStrategy",
    "WeightSubstrate",
    "BasisCache",
    "EngineConfig",
    "EngineOutcome",
    "ClarksonEngine",
    "InMemorySampling",
    "ExplicitWeightSubstrate",
    "iteration_budget",
]


def iteration_budget(problem: LPTypeProblem, r: int, max_iterations: Optional[int]) -> int:
    """Iteration budget shared by all four drivers.

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


class ViolationOracle:
    """Vectorised violation tests against one LP-type problem.

    A thin adapter over the batch methods of :class:`LPTypeProblem` so that
    strategies and drivers have a single place to ask "which of these
    constraints violate this witness?" and "how many of these witnesses does
    each constraint violate?" without scalar ``violates`` loops.  The oracle
    counts its calls (and the constraints they touched) so drivers can report
    them in :class:`~repro.core.result.ResourceUsage.oracle_calls`.
    """

    def __init__(self, problem: LPTypeProblem) -> None:
        self.problem = problem
        self.calls = 0
        self.constraints_tested = 0

    def _count(self, indices) -> None:
        self.calls += 1
        self.constraints_tested += int(len(indices))

    def record_external(self, calls: int, constraints: int) -> None:
        """Fold in violation tests that ran outside this oracle object.

        The fabric drivers evaluate masks *inside* node tasks (possibly in
        another process), where this oracle is unreachable; the driver
        reports those evaluations here so ``ResourceUsage.oracle_calls``
        stays comparable across models and transports.
        """
        self.calls += int(calls)
        self.constraints_tested += int(constraints)

    def mask(self, witness: Any, indices: np.ndarray) -> np.ndarray:
        """Boolean mask over ``indices``: which constraints violate ``witness``."""
        self._count(indices)
        return self.problem.violation_mask(witness, indices)

    def sweep(
        self,
        witness: Any,
        indices: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        need_total: bool = True,
        log_weights: Optional[np.ndarray] = None,
        log_shift: float = 0.0,
    ):
        """One fused violation sweep (mask + count + weight sums) over ``indices``.

        ``indices=None`` sweeps the full constraint set.  Counts as one
        oracle call touching every swept constraint, exactly like
        :meth:`violating` did on the same index set.
        """
        self.calls += 1
        self.constraints_tested += (
            self.problem.num_constraints if indices is None else int(len(indices))
        )
        return self.problem.violation_sweep(
            witness,
            indices,
            weights=weights,
            need_total=need_total,
            log_weights=log_weights,
            log_shift=log_shift,
        )

    def violating(self, witness: Any, indices: np.ndarray) -> np.ndarray:
        """Violating indices among ``indices`` (ascending)."""
        self._count(indices)
        return self.problem.violating_indices(witness, indices)

    def count_matrix(self, witnesses: Sequence[Any], indices: np.ndarray) -> np.ndarray:
        """Per-constraint count of violated witnesses (implicit-weight exponents)."""
        self._count(indices)
        return self.problem.violation_count_matrix(witnesses, indices)


class BasisCache:
    """Memo of ``solve_subset`` results keyed by the sorted index tuple.

    Clarkson re-solves heavily overlapping index sets: the terminal
    iterations of a run tend to rediscover the optimal basis, repeated runs
    re-solve the same samples, and every solved sample also certifies its own
    basis (``f(B) = f(A)`` for a basis ``B`` of ``A``), which is entered as a
    second key.  The cache is owned by one :class:`ClarksonEngine` — never
    shared across runs — so cached entries can only be observed by the run
    that computed them and repeated solves stay bit-identical.

    Index tuples are digested to 128-bit BLAKE2 fingerprints before storage,
    so an entry costs the fingerprint plus the (small) :class:`BasisResult`
    — the eps-net sample tuples themselves are never retained.  Like the
    streaming driver's chunk buffers, the cache is *simulator-side* scratch:
    it memoises the host's basis computations and is deliberately excluded
    from the modelled space/load accounting of the paper's theorems (see
    ``EXPERIMENTS.md`` on simulator scratch vs. modelled footprint).

    Eviction is insertion-ordered (FIFO) with a small fixed capacity; hits
    and misses are surfaced through
    :class:`~repro.core.result.ResourceUsage.basis_cache_hits` / ``_misses``.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._entries: dict[bytes, BasisResult] = {}

    @staticmethod
    def _digest(key) -> bytes:
        """Digest a sorted index collection (tuple or int ndarray)."""
        payload = np.asarray(key, dtype=np.int64).tobytes()
        return hashlib.blake2b(payload, digest_size=16).digest()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key) -> BasisResult | None:
        entry = self._entries.get(self._digest(key))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key, basis: BasisResult) -> None:
        digest = self._digest(key)
        if digest not in self._entries and len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[digest] = basis

    def record(self, key, basis: BasisResult) -> None:
        """Store a solved sample and seed the entry for its own basis."""
        self.put(key, basis)
        basis_key = tuple(sorted(int(i) for i in basis.indices))
        if basis_key and (
            len(basis_key) != len(key) or self._digest(basis_key) != self._digest(key)
        ):
            self.put(
                basis_key,
                BasisResult(
                    indices=basis.indices,
                    value=basis.value,
                    witness=basis.witness,
                    subset_size=len(basis.indices),
                ),
            )


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
    :func:`iteration_budget`; the drivers resolve them once so that all four
    models agree on the sampling regime.
    """

    sample_size: int
    epsilon: float
    budget: int
    keep_trace: bool = True
    name: str = "clarkson"
    basis_cache: bool = True
    basis_cache_capacity: int = 256


@dataclass
class EngineOutcome:
    """What the engine loop produced: the final basis plus the iteration story."""

    basis: BasisResult
    iterations: int
    successful_iterations: int
    trace: list[IterationRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Witnesses of the bases of successful iterations, in order.  This is
    #: the run's weight state in its model-independent form (Section 3.2:
    #: the weight of a constraint is ``boost ** #violated-stored-bases``);
    #: the session API carries it between solves to warm-start re-solves.
    successful_witnesses: list[Any] = field(default_factory=list)


class ClarksonEngine:
    """Owns the Algorithm 1 loop; model behaviour is injected via strategies.

    The engine guarantees identical iteration semantics across models: the
    same success test, the same trace records, the same termination rule
    (empty violator set) and the same budget handling.  Resource accounting
    is entirely the strategies' business.
    """

    def __init__(
        self,
        problem: LPTypeProblem,
        sampler: SamplingStrategy,
        substrate: WeightSubstrate,
        config: EngineConfig,
    ) -> None:
        self.problem = problem
        self.sampler = sampler
        self.substrate = substrate
        self.config = config
        # The basis-solve cache is strictly per-engine (= per-run) state:
        # sharing it across runs would leak one run's numerics into another.
        self.basis_cache = (
            BasisCache(config.basis_cache_capacity) if config.basis_cache else None
        )

    def _solve_sample(self, sample: np.ndarray) -> BasisResult:
        """Solve the sampled subset, going through the basis cache if enabled."""
        cache = self.basis_cache
        if cache is None:
            return self.problem.solve_subset(sample)
        # The digest works on the raw int64 array — building a Python tuple
        # of a 10^4-element sample costs more than the subset solve's setup.
        key = np.sort(np.asarray(sample, dtype=np.int64))
        basis = cache.get(key)
        if basis is None:
            basis = self.problem.solve_subset(sample)
            cache.record(key, basis)
        return basis

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
        # tap (if any) is the service front end's SSE feed.  The checkpoint
        # store (if any) is snapshotted after each successful iteration so a
        # transport failure can resume from the accumulated witnesses
        # instead of restarting the solve.
        context = solve_context()
        meter = context.meter
        tap = context.tap
        store = context.checkpoints

        for iteration in range(config.budget):
            if meter is not None:
                meter.charge_iteration()
            sample = self.sampler.draw(config.sample_size)
            basis = self._solve_sample(sample)
            stats = self.substrate.measure(sample, basis)
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
                self.substrate.boost(stats)
                successful += 1
                successful_witnesses.append(basis.witness)
                if store is not None:
                    store.record(iteration, successful_witnesses)
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
            cache_hits=self.basis_cache.hits if self.basis_cache else 0,
            cache_misses=self.basis_cache.misses if self.basis_cache else 0,
            successful_witnesses=successful_witnesses,
        )


# ---------------------------------------------------------------------- #
# The in-memory (sequential) binding, used by ``repro.core.clarkson`` and
# as the reference implementation of the strategy interfaces.
# ---------------------------------------------------------------------- #


class InMemorySampling(SamplingStrategy):
    """Weighted draw without replacement from an explicit weight vector.

    Draws Gumbel top-k keys directly from the log-space weight vector, so no
    ``O(n)`` exponentiated copy of the weights is materialised per draw.
    """

    def __init__(self, weights: ExplicitWeights, rng: np.random.Generator) -> None:
        self.weights = weights
        self.rng = rng

    def draw(self, sample_size: int) -> np.ndarray:
        return gumbel_top_k(self.weights.log_weights, sample_size, rng=self.rng)


class ExplicitWeightSubstrate(WeightSubstrate):
    """Explicit weight vector over all constraints (the sequential substrate).

    Also tracks the peak number of constraints materialised at once (the
    sample plus the stored bases), which is what Theorem 1 bounds for the
    sequential reference implementation.
    """

    def __init__(
        self,
        problem: LPTypeProblem,
        weights: ExplicitWeights,
        oracle: ViolationOracle | None = None,
    ) -> None:
        self.problem = problem
        self.weights = weights
        self.oracle = oracle or ViolationOracle(problem)
        self._all_indices = problem.all_indices()
        self._boosts = 0
        self.peak_items = 0

    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        # One fused sweep replaces the historical mask -> sort-indices ->
        # gather-weights -> sum sequence.  Weights go in as logs plus the
        # max shift: blocked backends exponentiate cache-resident blocks
        # inside the sweep, so no full scaled vector is ever materialised
        # on the per-iteration path; the violated/total ratio equals
        # ``weights.fraction`` of the violator set.
        log_weights = self.weights.log_weights
        stats = self.oracle.sweep(
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
