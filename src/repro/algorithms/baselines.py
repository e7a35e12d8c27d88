"""Baseline algorithms the paper compares against (Section 1.1).

* :func:`exact_in_memory` — solve the problem directly with full memory
  (the ground truth for all tests and the "no big-data constraint"
  reference point).
* :func:`single_pass_full_memory_streaming` — the trivial streaming
  algorithm: one pass, store everything.
* :func:`ship_all_coordinator` — the trivial coordinator algorithm: one
  round, every site ships its whole input to the coordinator, for a total
  of ``Theta(n)`` constraints of communication.  The E7 benchmark compares
  its communication against the ``~n^{1/r}`` of Theorem 2.
* :func:`clarkson_classic_reweighting` — Clarkson's original reweighting
  (doubling the violator weights), i.e. Algorithm 1 with ``boost = 2``.
  Used by the A1 ablation to show why the ``n^{1/r}`` boost is what buys the
  ``O(d * r)`` iteration bound.
"""

from __future__ import annotations

from dataclasses import replace

from .. import kernels
from ..core.accounting import BitCostModel
from ..core.clarkson import _clarkson_solve, solve_small_problem
from ..core.lptype import LPTypeProblem
from ..core.result import ResourceUsage, SolveResult
from ..core.rng import SeedLike
from ..fabric.payload import ConstraintBlock, Flag, constraint_rows
from ..fabric.topology import StarTopology, StreamTopology, partition_indices
from ..api.config import CoordinatorConfig, SolverConfig
from ..api.registry import register_model

__all__ = [
    "exact_in_memory",
    "single_pass_full_memory_streaming",
    "ship_all_coordinator",
    "clarkson_classic_reweighting",
]


def exact_in_memory(problem: LPTypeProblem) -> SolveResult:
    """Solve the problem directly on one machine with full memory."""
    with kernels.use_backend(None):
        result = solve_small_problem(problem)
    result.metadata["algorithm"] = "exact_in_memory"
    return result


def single_pass_full_memory_streaming(problem: LPTypeProblem) -> SolveResult:
    """The trivial streaming algorithm: one pass, remember every constraint."""
    stream = StreamTopology(problem.num_constraints)
    stream.record_pass()
    stored: list[int] = stream.order().tolist()
    with kernels.use_backend(None):
        basis = problem.solve_subset(stored)
    bit_size = problem.bit_size()
    return SolveResult(
        value=basis.value,
        witness=basis.witness,
        basis_indices=basis.indices,
        iterations=1,
        successful_iterations=1,
        resources=ResourceUsage(
            passes=stream.passes,
            space_peak_items=len(stored),
            space_peak_bits=len(stored) * bit_size,
        ),
        metadata={"algorithm": "single_pass_full_memory"},
    )


def ship_all_coordinator(
    problem: LPTypeProblem,
    num_sites: int = 4,
    cost_model: BitCostModel | None = None,
) -> SolveResult:
    """The trivial coordinator algorithm: every site ships its whole input."""
    partition = partition_indices(problem.num_constraints, num_sites, method="round_robin")
    star = StarTopology(len(partition), cost_model=cost_model)

    star.begin_round()
    received: list[int] = []
    for site, indices in enumerate(partition):
        star.send_down(site, Flag("send-all", 1))
        star.send_up(site, ConstraintBlock(indices, constraint_rows(problem, indices)))
        received.extend(int(i) for i in indices)
    star.end_round()

    with kernels.use_backend(None):
        basis = problem.solve_subset(sorted(received))
    return SolveResult(
        value=basis.value,
        witness=basis.witness,
        basis_indices=basis.indices,
        iterations=1,
        successful_iterations=1,
        resources=ResourceUsage(
            rounds=star.rounds,
            total_communication_bits=star.total_bits,
            max_message_bits=star.max_message_bits,
            machine_count=star.num_sites,
        ),
        metadata={"algorithm": "ship_all_coordinator", "k": star.num_sites},
    )


def clarkson_classic_reweighting(
    problem: LPTypeProblem,
    r: int = 2,
    rng: SeedLike = None,
    sample_scale: float = 1.0,
) -> SolveResult:
    """Algorithm 1 with Clarkson's classical factor-2 reweighting.

    Keeping the eps-net sample size of the paper but boosting violator
    weights only by a factor of 2 requires ``Omega(nu log n)`` successful
    iterations instead of ``O(nu r)``; the A1 ablation benchmark measures
    the difference directly.
    """
    config = SolverConfig(
        r=r, seed=rng, boost=2.0, sample_scale=sample_scale, max_iterations=4000
    )
    result = _clarkson_solve(problem, config)
    result.metadata["algorithm"] = "clarkson_classic_reweighting"
    return result


# --------------------------------------------------------------------------- #
# Registry bindings: the baselines are first-class models of the front door,
# so `compare_models(problem, models=("streaming", "ship_all_coordinator"))`
# reproduces the paper's algorithm-vs-naive tables through one call.
# --------------------------------------------------------------------------- #


@register_model(
    "exact",
    config_cls=SolverConfig,
    description=(
        "Solve directly with full memory (ground truth; no big-data "
        "constraint).  Deterministic and configuration-free: the "
        "meta-algorithm config keys have no effect."
    ),
    currencies=("space_peak_items",),
)
def _run_exact(problem: LPTypeProblem, config: SolverConfig) -> SolveResult:
    return exact_in_memory(problem)


@register_model(
    "single_pass_streaming",
    config_cls=SolverConfig,
    description=(
        "Trivial streaming baseline: one pass, store every constraint.  "
        "Deterministic and configuration-free: the meta-algorithm config "
        "keys have no effect."
    ),
    currencies=("passes", "space_peak_items", "space_peak_bits"),
)
def _run_single_pass(problem: LPTypeProblem, config: SolverConfig) -> SolveResult:
    return single_pass_full_memory_streaming(problem)


@register_model(
    "ship_all_coordinator",
    config_cls=CoordinatorConfig,
    description=(
        "Trivial coordinator baseline: one round, every site ships its whole "
        "input (Theta(n) communication).  Deterministic; only num_sites and "
        "cost_model take effect."
    ),
    currencies=(
        "rounds",
        "total_communication_bits",
        "max_message_bits",
        "machine_count",
    ),
)
def _run_ship_all(problem: LPTypeProblem, config: CoordinatorConfig) -> SolveResult:
    return ship_all_coordinator(
        problem, num_sites=config.num_sites, cost_model=config.cost_model
    )


@register_model(
    "classic_reweighting",
    config_cls=SolverConfig,
    description=(
        "Clarkson's original factor-2 reweighting (the A1 ablation): "
        "Omega(nu log n) successful iterations instead of O(nu r).  The "
        "boost field is fixed to 2 — that is the baseline's definition."
    ),
    currencies=("space_peak_items",),
)
def _run_classic(problem: LPTypeProblem, config: SolverConfig) -> SolveResult:
    # Unless the config sets one, the factor-2 boost needs a far larger
    # iteration budget than the Lemma 3.3 one the engine would derive.
    config = replace(config, boost=2.0, max_iterations=config.max_iterations or 4000)
    result = _clarkson_solve(problem, config)
    result.metadata["algorithm"] = "clarkson_classic_reweighting"
    return result
