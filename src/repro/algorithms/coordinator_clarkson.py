"""Coordinator-model binding of the Clarkson engine (Theorem 2), on the fabric.

The constraint set is partitioned over ``k`` sites.  Every iteration of
Algorithm 1 is simulated with three coordinator exchanges:

1. **weight round** — the coordinator tells every site whether the previous
   iteration succeeded (so the sites boost the violators they remembered)
   and gathers the local weight totals ``w(S_i)``;
2. **sampling round** — the coordinator draws a multinomial split of the
   eps-net size over the per-site totals (Lemma 3.7) and scatters the count
   ``y_i`` to each site; each site replies with ``y_i`` constraints sampled
   proportionally to its local weights, shipped as a measured
   :class:`~repro.fabric.payload.ConstraintBlock`;
3. **violation round** — the coordinator broadcasts the basis (a measured
   :class:`~repro.fabric.payload.BasisPayload`: basis constraints plus the
   encoded witness); each site measures its local violators with one
   vectorised ``violation_mask`` call and replies with the violator weight,
   its weight total, and the violator count.

All communication flows through a :class:`~repro.fabric.topology.StarTopology`
(the classic coordinator model: one ledger round per exchange) or a
:class:`~repro.fabric.topology.TreeTopology` (the aggregation-tree variant:
``ceil(log_fanout k)`` rounds per exchange, but the coordinator's per-round
load drops from ``k * b`` to ``O(fanout * b)`` on combinable gathers).  Site
state — local weights, the per-site RNG derived from the run seed, and the
remembered violator positions — lives with the configured
:class:`~repro.fabric.transport.Transport`: in-process by default, or on
real worker processes with ``TransportConfig(kind="process")``, with
bit-identical results either way.

On the star this uses ``3`` rounds per iteration (a constant factor over the
idealised accounting, recorded in EXPERIMENTS.md) and
``O~(lambda * nu * n^{1/r} + k)`` constraints of communication per run,
matching Theorem 2.  The iteration loop itself lives in
:class:`repro.core.engine.ClarksonEngine`; rounds 1-2 happen inside the
sampling strategy, round 3 inside the weight substrate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import kernels
from ..core.accounting import BitCostModel
from ..core.clarkson import (
    _warm_stats,
    resolve_sampling,
    solve_small_problem,
)
from ..core.engine import (
    ClarksonEngine,
    EngineConfig,
    SamplingStrategy,
    ViolationOracle,
    ViolationStats,
    WeightSubstrate,
    iteration_budget,
)
from ..core.exceptions import IterationLimitError
from ..core.lptype import BasisResult, LPTypeProblem
from ..core.result import ResourceUsage, SolveResult
from ..core.rng import as_generator, spawn
from ..core.sampling import multinomial_split, weighted_sample_without_replacement
from ..core.weights import ExplicitWeights, boost_factor
from ..fabric.payload import (
    BasisPayload,
    ConstraintBlock,
    Count,
    Flag,
    Scalar,
    StatsBlock,
    constraint_rows,
    encode_witness_vector,
)
from ..fabric.topology import StarTopology, TreeTopology, partition_indices
from ..fabric.transport import SharedRef, resolve_transport
from ..api.config import CoordinatorConfig
from ..api.registry import register_model

__all__: list[str] = []


# ---------------------------------------------------------------------- #
# Site tasks: top-level functions so the process transport can ship them.
# Each takes the site state dict, returns ``(state, result)``.
# ---------------------------------------------------------------------- #


def _site_weight_round(state: dict, apply_boost: int) -> tuple[dict, float]:
    """Round 1, site side: boost remembered violators, report the total."""
    if apply_boost and state["pending"] is not None and state["local_indices"].size:
        state["weights"].multiply(state["pending"])
    state["pending"] = None
    with kernels.use_backend(state.get("kernel")):
        total = (
            float(np.exp(state["weights"].total_weight_log()))
            if state["local_indices"].size
            else 0.0
        )
    return state, total


def _site_sample_round(state: dict, count: int) -> tuple[dict, ConstraintBlock]:
    """Round 2, site side: draw ``count`` local constraints by weight."""
    site_n = int(state["local_indices"].size)
    y = int(min(count, site_n))
    if y > 0:
        local_sample = weighted_sample_without_replacement(
            state["weights"].weights(), y, rng=state["rng"]
        )
        chosen = state["local_indices"][local_sample]
    else:
        chosen = np.empty(0, dtype=int)
    payload = ConstraintBlock(
        indices=chosen, rows=constraint_rows(state["problem"], chosen)
    )
    return state, payload


def _site_violation_round(state: dict, witness) -> tuple[dict, tuple[float, float, int]]:
    """Round 3, site side: measure local violators, remember their positions.

    One fused kernel sweep per site: the violation mask, the violator count,
    and the violated-weight sum come out of a single blocked pass over the
    site's local constraints (no full margin temporaries).
    """
    idx = state["local_indices"]
    if idx.size == 0:
        state["pending"] = np.empty(0, dtype=int)
        return state, (0.0, 0.0, 0)
    weights: ExplicitWeights = state["weights"]
    with kernels.use_backend(state.get("kernel")):
        stats = state["problem"].violation_sweep(
            witness, idx, weights=weights.weights(), need_total=False
        )
        site_total = float(np.exp(weights.total_weight_log()))
        violator_weight = (stats.violated_weight / weights.scaled_total) * site_total
    state["pending"] = np.flatnonzero(stats.mask)
    return state, (float(violator_weight), site_total, int(stats.count))


def _site_ship_all(state: dict) -> tuple[dict, ConstraintBlock]:
    """Small-instance path: ship the whole local share to the coordinator."""
    idx = state["local_indices"]
    return state, ConstraintBlock(indices=idx, rows=constraint_rows(state["problem"], idx))


class _CoordinatorState:
    """Coordinator-side run state: the topology plus the protocol flags."""

    def __init__(
        self,
        problem: LPTypeProblem,
        topology: StarTopology | TreeTopology,
        oracle: ViolationOracle,
        gen: np.random.Generator,
        kernel_backend: str | None = None,
    ) -> None:
        self.problem = problem
        self.topology = topology
        self.oracle = oracle
        self.gen = gen
        self.kernel_backend = kernel_backend
        self.num_sites = topology.num_sites
        self.site_sizes: list[int] = []
        # Whether the previous iteration succeeded (sites then apply the
        # boost they remembered during the last violation round).
        self.pending_boost = False

    def install_sites(
        self,
        partition: Sequence[np.ndarray],
        boost: float,
        warm_exponents: np.ndarray | None = None,
    ) -> None:
        site_rngs = spawn(self.gen, self.num_sites)
        # Ship the (large, read-only) problem once per transport worker; the
        # per-site states hold a reference, not a copy.
        self.topology.share("problem", self.problem)
        for site_id, local in enumerate(partition):
            local = np.asarray(local, dtype=int)
            self.site_sizes.append(int(local.size))
            if warm_exponents is not None and local.size:
                # Warm re-solve (session API): each site resumes the weight
                # state its constraints carried at the end of the prior run
                # (boost ** #violated-prior-bases, Section 3.2 applied to
                # the explicit per-site vectors).
                weights = ExplicitWeights.from_exponents(
                    warm_exponents[local], boost
                )
            else:
                weights = ExplicitWeights.uniform(max(1, local.size), boost)
            self.topology.init_state(
                site_id,
                {
                    "problem": SharedRef("problem"),
                    "local_indices": local,
                    "weights": weights,
                    "rng": site_rngs[site_id],
                    "pending": None,
                    "kernel": self.kernel_backend,
                },
            )


class MultinomialSplitSampling(SamplingStrategy):
    """Rounds 1-2 of an iteration: weight totals, then a Lemma 3.7 split."""

    def __init__(self, state: _CoordinatorState) -> None:
        self.state = state

    def draw(self, sample_size: int) -> np.ndarray:
        state = self.state
        topology = state.topology
        k = state.num_sites

        # ---------------- round 1: weight totals (and weight update) ---------------- #
        flag = 1 if state.pending_boost else 0
        topology.begin_round()
        topology.broadcast_down(Flag("update?", flag))
        totals = topology.run_all(_site_weight_round, [(flag,)] * k)
        # The coordinator consumes every site's individual total (the
        # Lemma 3.7 split needs the full vector), so a tree must forward
        # them verbatim — a combine-summed gather could not deliver them.
        delivered = topology.gather_up(
            [Scalar(t) for t in totals], combinable=False
        )
        topology.end_round()
        state.pending_boost = False
        totals = np.asarray([p.value for p in delivered], dtype=float)

        # ---------------- round 2: multinomial split and local sampling ---------------- #
        if totals.sum() <= 0:
            raise IterationLimitError("all site weights vanished; invalid state")
        counts = multinomial_split(totals, sample_size, rng=state.gen)
        topology.begin_round()
        topology.scatter_down([Count(int(c)) for c in counts])
        blocks = topology.run_all(
            _site_sample_round, [(int(c),) for c in counts]
        )
        delivered_blocks = topology.gather_up(blocks)
        topology.end_round()
        sampled: set[int] = set()
        for block in delivered_blocks:
            sampled.update(int(i) for i in block.indices)
        return np.asarray(sorted(sampled), dtype=int)


class PartitionedWeightSubstrate(WeightSubstrate):
    """Round 3 of an iteration: basis broadcast plus violation statistics."""

    def __init__(self, state: _CoordinatorState) -> None:
        self.state = state

    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        state = self.state
        topology = state.topology
        problem = state.problem
        k = state.num_sites

        basis_idx = np.asarray(basis.indices, dtype=int)
        payload = BasisPayload(
            indices=basis_idx,
            rows=constraint_rows(problem, basis_idx),
            witness=encode_witness_vector(problem, basis.witness),
        )
        topology.begin_round()
        topology.broadcast_down(payload)
        stats = topology.run_all(_site_violation_round, [(basis.witness,)] * k)
        delivered = topology.gather_up(
            [StatsBlock(np.asarray(s, dtype=float)) for s in stats], combinable=True
        )
        topology.end_round()
        state.oracle.record_external(
            sum(1 for size in state.site_sizes if size), sum(state.site_sizes)
        )

        violator_weight = sum(float(p.values[0]) for p in delivered)
        total_weight = sum(float(p.values[1]) for p in delivered)
        violator_count = sum(int(p.values[2]) for p in delivered)
        fraction = violator_weight / total_weight if total_weight > 0 else 0.0
        return ViolationStats(
            num_violators=violator_count, weight_fraction=fraction, context=None
        )

    def boost(self, stats: ViolationStats) -> None:
        # The boost is applied by the sites during the next weight round,
        # from the violator positions they remembered locally.
        self.state.pending_boost = True


def _build_topology(
    num_sites: int, config: CoordinatorConfig, cost_model: BitCostModel
) -> StarTopology | TreeTopology:
    # CoordinatorConfig has validated the topology: "star" or "tree".
    transport = resolve_transport(config.transport)
    if config.topology == "tree":
        return TreeTopology(
            num_sites, fanout=config.fanout, transport=transport, cost_model=cost_model
        )
    return StarTopology(num_sites, transport=transport, cost_model=cost_model)


def _coordinator_clarkson_solve(
    problem: LPTypeProblem,
    config: CoordinatorConfig,
    warm_witnesses: list | None = None,
) -> SolveResult:
    """The coordinator driver behind ``repro.solve(problem, model="coordinator")``.

    Registered as the model's runner and warm runner;
    ``resources.rounds`` and ``resources.total_communication_bits`` carry
    the coordinator-model costs and ``result.communication`` the per-round
    trace.  ``warm_witnesses`` (session API) seeds the per-site weight
    vectors from a prior run's successful-iteration bases; the prior run
    already broadcast those bases to every site, so re-deriving the local
    weights costs no additional communication.
    """
    gen = as_generator(config.seed)
    n = problem.num_constraints
    cost_model = config.cost_model or BitCostModel()
    partition = config.partition
    if partition is None:
        partition = partition_indices(n, config.num_sites, method="round_robin")
    net = _build_topology(len(partition), config, cost_model)

    sample_size, epsilon = resolve_sampling(problem, config)
    boost = config.boost if config.boost is not None else boost_factor(n, config.r)
    backend = kernels.resolve_backend_name(config.kernel_backend)

    state = _CoordinatorState(
        problem=problem,
        topology=net,
        oracle=ViolationOracle(problem),
        gen=gen,
        kernel_backend=backend,
    )
    warm_exponents = None
    if warm_witnesses:
        # One vectorised sweep recovers the carried weight state; in a real
        # deployment each site would evaluate its own slice against the
        # bases it already holds from the prior run's broadcasts.
        with kernels.use_backend(backend):
            warm_exponents = state.oracle.count_matrix(
                warm_witnesses, problem.all_indices()
            )
    try:
        state.install_sites(partition, boost, warm_exponents=warm_exponents)

        if sample_size >= n:
            # Cheaper to ship everything to the coordinator in one exchange.
            net.begin_round()
            net.broadcast_down(Flag("send-all", 1))
            blocks = net.run_all(_site_ship_all, [()] * net.num_sites)
            net.gather_up(blocks)
            net.end_round()
            with kernels.use_backend(backend):
                result = solve_small_problem(problem)
            result.resources.rounds = net.rounds
            result.resources.total_communication_bits = net.total_bits
            result.resources.max_message_bits = net.max_message_bits
            result.resources.max_machine_load_bits = net.max_load_bits
            result.resources.machine_count = net.num_sites
            result.resources.per_round = net.ledger.as_table()
            result.metadata.update(
                {
                    "algorithm": "coordinator_clarkson",
                    "r": config.r,
                    "k": net.num_sites,
                    "topology": config.topology,
                    "transport": net.transport.name,
                    "kernel_backend": backend,
                }
            )
            result.warm = _warm_stats(warm_witnesses, [])
            return result

        engine = ClarksonEngine(
            problem=problem,
            sampler=MultinomialSplitSampling(state),
            substrate=PartitionedWeightSubstrate(state),
            config=EngineConfig(
                sample_size=sample_size,
                epsilon=epsilon,
                budget=iteration_budget(problem, config.r, config.max_iterations),
                keep_trace=config.keep_trace,
                name="coordinator Clarkson",
                basis_cache=config.basis_cache,
            ),
        )
        with kernels.use_backend(backend):
            outcome = engine.run()
    finally:
        net.close()

    resources = ResourceUsage(
        rounds=net.rounds,
        total_communication_bits=net.total_bits,
        max_message_bits=net.max_message_bits,
        max_machine_load_bits=net.max_load_bits,
        machine_count=net.num_sites,
        oracle_calls=state.oracle.calls,
        basis_cache_hits=outcome.cache_hits,
        basis_cache_misses=outcome.cache_misses,
        per_round=net.ledger.as_table(),
    )
    return SolveResult(
        value=outcome.basis.value,
        witness=outcome.basis.witness,
        basis_indices=outcome.basis.indices,
        iterations=outcome.iterations,
        successful_iterations=outcome.successful_iterations,
        resources=resources,
        trace=outcome.trace,
        metadata={
            "algorithm": "coordinator_clarkson",
            "r": config.r,
            "k": net.num_sites,
            "epsilon": epsilon,
            "sample_size": sample_size,
            "boost": boost,
            "topology": config.topology,
            "transport": net.transport.name,
            "kernel_backend": backend,
        },
        warm=_warm_stats(warm_witnesses, outcome.successful_witnesses),
    )


register_model(
    "coordinator",
    _coordinator_clarkson_solve,
    config_cls=CoordinatorConfig,
    description=(
        "Coordinator-model Clarkson (Theorem 2): per-site explicit weights, "
        "three exchanges per iteration over a star or aggregation-tree "
        "topology, O~(n^{1/r} + k) communication."
    ),
    currencies=(
        "rounds",
        "total_communication_bits",
        "max_message_bits",
        "max_machine_load_bits",
        "machine_count",
    ),
    transports=("inprocess", "process", "tcp"),
    warm_runner=_coordinator_clarkson_solve,
    capabilities=("warm_restart", "ingest"),
)
