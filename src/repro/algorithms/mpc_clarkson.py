"""MPC binding of the Clarkson engine (Theorem 3), on the fabric.

The constraint set is partitioned over ``k`` machines with roughly ``n^delta``
constraints each; machine 0 plays the role of the coordinator.  Because the
coordinator machine cannot receive a message from every other machine in a
single round without blowing up its load, the coordinator-model protocol is
simulated with the standard tree primitives of Goodrich et al. [23]:

* the per-iteration basis (a measured
  :class:`~repro.fabric.payload.BasisPayload`) and the success flag are
  **broadcast** through an ``n^delta``-ary tree in ``O(1/delta)`` rounds;
* the total constraint weight is computed by an **aggregation** tree in
  ``O(1/delta)`` rounds;
* every machine then samples its share of the eps-net locally (its weights
  are implicit in the broadcast bases it stores, evaluated in one vectorised
  ``violation_count_matrix`` sweep per machine, cached per basis version)
  and ships the sample — a measured
  :class:`~repro.fabric.payload.ConstraintBlock` — directly to the
  coordinator; the sample fits in the coordinator's ``O~(n^delta)`` load by
  the choice of the eps-net size.

All communication flows through a
:class:`~repro.fabric.topology.GridTopology`; machine state (local indices,
the stored bases, the per-machine RNG derived from the run seed) lives with
the configured :class:`~repro.fabric.transport.Transport` — in-process by
default, real worker processes with ``TransportConfig(kind="process")`` —
with bit-identical results either way.

With ``r = ceil(1/delta)`` iterations of Algorithm 1 behaving as in the
coordinator model, the total round count is ``O(nu / delta^2)`` and the
per-machine load is ``O~(lambda * nu^2 * n^delta)`` bits, matching Theorem 3.

The run itself (sample size, boost, the direct solve of small instances,
the engine loop, the result) is :func:`repro.core.clarkson.run_clarkson`;
this module provides the machine tasks and :class:`MPCModel`, whose
``draw`` holds the aggregation and sampling rounds and whose ``measure``
holds the basis-broadcast and statistics trees.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import Optional

import numpy as np

from .. import kernels
from ..core.accounting import BitCostModel
from ..core.clarkson import ClarksonModel, run_clarkson
from ..core.engine import ViolationStats
from ..core.exceptions import IterationLimitError
from ..core.lptype import BasisResult, LPTypeProblem
from ..core.rng import spawn
from ..core.sampling import gumbel_top_k
from ..fabric.payload import (
    BasisPayload,
    ConstraintBlock,
    Flag,
    Scalar,
    StatsBlock,
    constraint_rows,
    encode_witness_vector,
)
from ..fabric.topology import GridTopology, partition_indices
from ..fabric.transport import SharedRef, resolve_transport
from ..api.config import MPCConfig
from ..api.registry import register_model

__all__ = ["machines_for_load"]

_COORDINATOR = 0


def machines_for_load(num_constraints: int, delta: float) -> int:
    """Number of machines ``~ n^(1 - delta)`` needed for load ``~ n^delta``."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if num_constraints < 1:
        raise ValueError("num_constraints must be >= 1")
    return max(1, int(math.ceil(num_constraints ** (1.0 - delta))))


# ---------------------------------------------------------------------- #
# Machine tasks: top-level functions so the process transport can ship them.
# Each takes the machine state dict, returns ``(state, result)``.
# ---------------------------------------------------------------------- #


def _machine_weights(state: dict) -> tuple[np.ndarray, np.ndarray]:
    """Implicit weights of this machine's constraints, cached per version.

    The weight of constraint ``i`` is ``boost ** a_i`` where ``a_i`` counts
    the stored bases it violates; values are kept relative to
    ``boost ** num_bases`` to stay finite.  Recomputed only when a new basis
    arrived since the last call.
    """
    version = len(state["witnesses"])
    if state.get("weights_version") != version:
        with kernels.use_backend(state.get("kernel")):
            exponents = state["problem"].violation_count_matrix(
                state["witnesses"], state["local_indices"]
            )
        relative = (exponents - version).astype(float)
        state["log_weights"] = relative * float(np.log(state["boost"]))
        state["weights"] = state["boost"] ** relative
        state["weights_version"] = version
    return state["weights"], state["log_weights"]


def _machine_weight_total(state: dict) -> tuple[dict, float]:
    """Aggregation-tree leaf value: this machine's total implicit weight."""
    if state["local_indices"].size == 0:
        return state, 0.0
    weights, _ = _machine_weights(state)
    return state, float(weights.sum())


def _machine_sample(
    state: dict, sample_size: int, total_weight: float
) -> tuple[dict, Optional[ConstraintBlock]]:
    """Draw this machine's binomial share of the eps-net (Gumbel top-k)."""
    if state["local_indices"].size == 0:
        return state, None
    weights, log_weights = _machine_weights(state)
    share = float(weights.sum()) / total_weight
    draws = int(state["rng"].binomial(sample_size, min(1.0, share)))
    draws = min(draws, int(state["local_indices"].size))
    if draws == 0:
        return state, None
    with kernels.use_backend(state.get("kernel")):
        chosen_positions = gumbel_top_k(log_weights, draws, rng=state["rng"])
    chosen = state["local_indices"][chosen_positions]
    return state, ConstraintBlock(
        indices=chosen, rows=constraint_rows(state["problem"], chosen)
    )


def _machine_stats(state: dict, witness) -> tuple[dict, tuple[float, int]]:
    """Violator weight and count of this machine against one witness.

    One fused kernel sweep per machine: mask, count, and violated-weight sum
    come out of a single blocked pass over the machine's local constraints.
    """
    if state["local_indices"].size == 0:
        return state, (0.0, 0)
    weights, _ = _machine_weights(state)
    with kernels.use_backend(state.get("kernel")):
        stats = state["problem"].violation_sweep(
            witness, state["local_indices"], weights=weights, need_total=False
        )
    return state, (float(stats.violated_weight), int(stats.count))


def _machine_store_witness(state: dict, witness) -> tuple[dict, None]:
    """A successful iteration's basis arrived: extend the implicit weights."""
    state["witnesses"].append(witness)
    return state, None


class MPCModel(ClarksonModel):
    """The MPC run: implicit stored-bases weights, trees for every collective.

    ``draw`` runs the weight aggregation tree plus the direct-to-coordinator
    sampling round, ``measure`` the basis broadcast and the statistics
    aggregation tree, and ``boost`` stores the witness on every machine.
    ``resources.rounds`` and ``max_machine_load_bits`` carry the MPC costs
    and ``result.communication`` the per-round trace.  The model fixes
    ``r = ceil(1/delta)`` and ignores ``config.r``.  A direct solve
    aggregates the largest machine's constraints once; on one machine every
    instance is solved directly.
    """

    name = "MPC Clarkson"
    algorithm = direct_algorithm = "mpc_clarkson"
    run_metadata = (
        "algorithm", "delta", "r", "k", "epsilon", "sample_size", "boost",
        "fanout", "transport", "kernel_backend",
    )
    direct_metadata = ("algorithm", "delta", "k", "transport", "kernel_backend")

    def __init__(
        self, problem: LPTypeProblem, config: MPCConfig, warm_witnesses
    ) -> None:
        delta = config.delta
        config = replace(config, r=max(1, int(math.ceil(1.0 / delta))))
        super().__init__(problem, config, warm_witnesses)
        n = problem.num_constraints
        partition = config.partition
        if partition is None:
            k = config.num_machines or machines_for_load(n, delta)
            partition = partition_indices(n, k, method="round_robin")
        self.partition = [np.asarray(local, dtype=int) for local in partition]
        self.machine_sizes = [int(local.size) for local in self.partition]
        self.topology = GridTopology(
            len(self.partition),
            transport=resolve_transport(config.transport),
            cost_model=config.cost_model or BitCostModel(),
        )
        self.fanout = max(2, int(math.ceil(n ** delta)))
        self.always_direct = self.topology.num_machines == 1
        self.total_weight = 0.0
        # Warm re-solves (session API) seed every machine's stored bases
        # with the prior run's successful-iteration witnesses; the prior run
        # broadcast them machine-wide already, so the carry costs no rounds.
        self.num_bases = len(self.warm)
        self._counted_version = -1

    def install(self, boost: float, backend: str) -> None:
        machine_rngs = spawn(self.rng, self.topology.num_machines)
        # One shipped copy of the problem per transport worker, not per machine.
        self.topology.share("problem", self.problem)
        for machine_id, local in enumerate(self.partition):
            self.topology.init_state(
                machine_id,
                {
                    "problem": SharedRef("problem"),
                    "local_indices": local,
                    "rng": machine_rngs[machine_id],
                    "witnesses": list(self.warm),
                    "boost": boost,
                    "weights_version": -1,
                    "kernel": backend,
                },
            )

    def pay_direct(self) -> None:
        # Everything fits on the coordinator: aggregate the constraints once.
        if self.topology.num_machines > 1:
            largest = max(self.partition, key=len)
            rows = constraint_rows(self.problem, largest)
            self.topology.aggregate_tree(
                _COORDINATOR, ConstraintBlock(indices=largest, rows=rows), self.fanout
            )

    def note_weight_sweep(self) -> None:
        """Count the per-machine implicit-weight sweeps, once per version."""
        if self._counted_version != self.num_bases:
            self.oracle_calls += sum(1 for size in self.machine_sizes if size)
            self._counted_version = self.num_bases

    def draw(self, sample_size: int) -> np.ndarray:
        topology = self.topology
        k = topology.num_machines

        # -------- total weight via an aggregation tree -------- #
        self.note_weight_sweep()
        machine_totals = topology.run_all(_machine_weight_total, [()] * k)
        _, total_weight = topology.aggregate_tree(
            _COORDINATOR,
            Scalar(0.0),
            self.fanout,
            values=machine_totals,
            combine=lambda a, b: (a or 0.0) + (b or 0.0),
        )
        total_weight = float(total_weight)
        if total_weight <= 0:
            raise IterationLimitError("all machine weights vanished; invalid state")
        self.total_weight = total_weight

        # -------- local sampling, shipped to the coordinator -------- #
        topology.begin_round()
        blocks = topology.run_all(
            _machine_sample, [(sample_size, total_weight)] * k
        )
        shipped = [
            block if machine_id == _COORDINATOR
            else topology.send(machine_id, _COORDINATOR, block)
            for machine_id, block in enumerate(blocks)
            if block is not None
        ]
        topology.end_round()
        indices = [np.empty(0, dtype=int)] + [block.indices for block in shipped]
        return np.unique(np.concatenate(indices))

    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        topology = self.topology
        problem = self.problem

        # -------- broadcast the basis through the tree -------- #
        basis_idx = np.asarray(basis.indices, dtype=int)
        payload = BasisPayload(
            indices=basis_idx,
            rows=constraint_rows(problem, basis_idx),
            witness=encode_witness_vector(problem, basis.witness),
        )
        topology.broadcast_tree(_COORDINATOR, payload, self.fanout)

        # -------- violation statistics via an aggregation tree -------- #
        per_machine_stats = topology.run_all(
            _machine_stats, [(basis.witness,)] * topology.num_machines
        )
        self.oracle_calls += sum(1 for size in self.machine_sizes if size)
        _, aggregate = topology.aggregate_tree(
            _COORDINATOR,
            StatsBlock(np.zeros(2)),
            self.fanout,
            values=per_machine_stats,
            combine=lambda a, b: (
                (a or (0.0, 0))[0] + (b or (0.0, 0))[0],
                (a or (0.0, 0))[1] + (b or (0.0, 0))[1],
            ),
        )
        violator_weight, violator_count = aggregate
        fraction = (
            violator_weight / self.total_weight if self.total_weight > 0 else 0.0
        )
        return ViolationStats(
            num_violators=int(violator_count),
            weight_fraction=float(fraction),
            context=basis.witness,
        )

    def boost(self, stats: ViolationStats) -> None:
        topology = self.topology
        # The success flag rides along with the next basis broadcast; a
        # dedicated one-counter broadcast keeps the accounting explicit.  The
        # machines extend their stored bases with the witness they received.
        topology.run_all(
            _machine_store_witness, [(stats.context,)] * topology.num_machines
        )
        self.num_bases += 1
        topology.broadcast_tree(_COORDINATOR, Flag("success", 1), self.fanout)

    def metadata(self) -> dict:
        return {
            **super().metadata(),
            "delta": self.config.delta,
            "k": self.topology.num_machines,
            "fanout": self.fanout,
        }


register_model(
    "mpc",
    partial(run_clarkson, model=MPCModel),
    config_cls=MPCConfig,
    description=(
        "MPC Clarkson (Theorem 3): implicit weights with tree "
        "broadcast/aggregation, O(nu/delta^2) rounds, O~(n^delta) load per "
        "machine."
    ),
    currencies=(
        "rounds",
        "max_machine_load_bits",
        "total_communication_bits",
        "machine_count",
    ),
    transports=("inprocess", "process", "tcp"),
    warm_restart=True,
)
