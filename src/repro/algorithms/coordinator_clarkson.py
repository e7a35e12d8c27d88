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
matching Theorem 2.  The run itself (sample size, boost, the direct solve
of small instances, the engine loop, the result) is
:func:`repro.core.clarkson.run_clarkson`; this module provides the site
tasks and :class:`CoordinatorModel`, whose ``draw`` holds rounds 1-2 and
whose ``measure`` holds round 3.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import kernels
from ..core.accounting import BitCostModel
from ..core.clarkson import ClarksonModel, run_clarkson
from ..core.engine import ViolationStats
from ..core.exceptions import IterationLimitError
from ..core.lptype import BasisResult, LPTypeProblem
from ..core.rng import spawn
from ..core.sampling import multinomial_split, weighted_sample_without_replacement
from ..core.weights import ExplicitWeights
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


class CoordinatorModel(ClarksonModel):
    """The coordinator's run: per-site explicit weights, three exchanges per iteration.

    ``draw`` is rounds 1-2 (weight totals, then a Lemma 3.7 split and the
    local samples), ``measure`` is round 3 (basis broadcast plus violation
    statistics), and ``boost`` only flags the success, which the sites
    apply in the next weight round.  ``resources.rounds`` and the
    communication currencies carry the coordinator costs, and
    ``result.communication`` the per-round trace.  A warm re-solve seeds
    the per-site weight vectors from the prior run's bases; that run
    already broadcast them to every site, so it costs no communication.  A
    direct solve costs one exchange in which every site ships its share.
    """

    name = "coordinator Clarkson"
    algorithm = direct_algorithm = "coordinator_clarkson"
    run_metadata = (
        "algorithm", "r", "k", "epsilon", "sample_size", "boost", "topology",
        "transport", "kernel_backend",
    )
    direct_metadata = ("algorithm", "r", "k", "topology", "transport", "kernel_backend")

    def __init__(
        self, problem: LPTypeProblem, config: CoordinatorConfig, warm_witnesses
    ) -> None:
        super().__init__(problem, config, warm_witnesses)
        partition = config.partition
        if partition is None:
            partition = partition_indices(
                problem.num_constraints, config.num_sites, method="round_robin"
            )
        self.partition = [np.asarray(local, dtype=int) for local in partition]
        self.site_sizes = [int(local.size) for local in self.partition]
        # CoordinatorConfig has validated the topology: "star" or "tree".
        transport = resolve_transport(config.transport)
        cost_model = config.cost_model or BitCostModel()
        if config.topology == "tree":
            self.topology = TreeTopology(
                len(self.partition), fanout=config.fanout, transport=transport,
                cost_model=cost_model,
            )
        else:
            self.topology = StarTopology(
                len(self.partition), transport=transport, cost_model=cost_model
            )
        # Whether the previous iteration succeeded (sites then apply the
        # boost they remembered during the last violation round).
        self.pending_boost = False

    def install(self, boost: float, backend: str) -> None:
        # In a real deployment each site would evaluate the warm witnesses
        # on its own slice, against the bases it holds from the prior run.
        exponents = self.warm_exponents()
        site_rngs = spawn(self.rng, len(self.partition))
        # Ship the (large, read-only) problem once per transport worker; the
        # per-site states hold a reference, not a copy.
        self.topology.share("problem", self.problem)
        for site_id, local in enumerate(self.partition):
            if exponents is not None and local.size:
                # Each site resumes the weight state its constraints carried
                # at the end of the prior run (boost ** #violated-prior-bases,
                # Section 3.2 applied to the explicit per-site vectors).
                weights = ExplicitWeights.from_exponents(exponents[local], boost)
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
                    "kernel": backend,
                },
            )

    def pay_direct(self) -> None:
        # Cheaper to ship everything to the coordinator in one exchange.  The
        # sites need only their shares for it: no weights, no RNGs.
        topology = self.topology
        topology.share("problem", self.problem)
        for site_id, local in enumerate(self.partition):
            topology.init_state(
                site_id, {"problem": SharedRef("problem"), "local_indices": local}
            )
        topology.begin_round()
        topology.broadcast_down(Flag("send-all", 1))
        blocks = topology.run_all(_site_ship_all, [()] * topology.num_sites)
        topology.gather_up(blocks)
        topology.end_round()

    def draw(self, sample_size: int) -> np.ndarray:
        topology = self.topology
        k = topology.num_sites

        # ---------------- round 1: weight totals (and weight update) ---------------- #
        flag = 1 if self.pending_boost else 0
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
        self.pending_boost = False
        totals = np.asarray([p.value for p in delivered], dtype=float)

        # ---------------- round 2: multinomial split and local sampling ---------------- #
        if totals.sum() <= 0:
            raise IterationLimitError("all site weights vanished; invalid state")
        counts = multinomial_split(totals, sample_size, rng=self.rng)
        topology.begin_round()
        topology.scatter_down([Count(int(c)) for c in counts])
        blocks = topology.run_all(
            _site_sample_round, [(int(c),) for c in counts]
        )
        delivered_blocks = topology.gather_up(blocks)
        topology.end_round()
        return np.unique(np.concatenate([block.indices for block in delivered_blocks]))

    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        topology = self.topology
        problem = self.problem

        basis_idx = np.asarray(basis.indices, dtype=int)
        payload = BasisPayload(
            indices=basis_idx,
            rows=constraint_rows(problem, basis_idx),
            witness=encode_witness_vector(problem, basis.witness),
        )
        topology.begin_round()
        topology.broadcast_down(payload)
        stats = topology.run_all(
            _site_violation_round, [(basis.witness,)] * topology.num_sites
        )
        delivered = topology.gather_up(
            [StatsBlock(np.asarray(s, dtype=float)) for s in stats], combinable=True
        )
        topology.end_round()
        self.oracle_calls += sum(1 for size in self.site_sizes if size)

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
        self.pending_boost = True

    def metadata(self) -> dict:
        return {
            **super().metadata(),
            "k": self.topology.num_sites,
            "topology": self.config.topology,
        }


register_model(
    "coordinator",
    partial(run_clarkson, model=CoordinatorModel),
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
    warm_restart=True,
)
