"""Multi-pass streaming binding of the Clarkson engine (Theorem 1), on the fabric.

The streaming driver cannot store per-constraint weights.  Following
Section 3.2 of the paper, it instead stores the bases of all *successful*
iterations; the weight of a constraint during pass ``t`` is
``boost ** a_i`` where ``a_i`` is the number of stored bases the constraint
violates.  With those implicit weights, each iteration of Algorithm 1 is
implemented with

* one **sampling pass** that draws a weighted reservoir sample of size ``m``
  (the eps-net size) from the stream, and
* one **verification pass** that, given the basis computed from the sample,
  measures the weight fraction of the violating constraints (the success
  test of Algorithm 1) and detects termination.

The stream reader is a fabric node on a
:class:`~repro.fabric.topology.StreamTopology`: each pass executes as one
node task (the reader's RNG, stored bases, and arrival order live in its
node state), so under ``TransportConfig(kind="process")`` every pass runs in
a real worker process — bit-identical to the in-process default, because the
task code and the shipped RNG state are the same.  One ledger round is
recorded per pass, which is what ``SolveResult.communication`` surfaces.

Both passes consume the stream in bounded chunks: each chunk's implicit
weights are evaluated against all stored bases in one vectorised
``violation_count_matrix`` call, and the sampling pass turns each chunk into
batch exponential keys, keeping a running top-``m`` — statistically
identical to offering the items to the reservoir one at a time.  The
simulator's live scratch is therefore ``O(chunk + m + nu * r)``, mirroring
the block buffering a real streaming system would use; the *reported*
footprint counts the modelled algorithm's reservoir, stored bases, and
in-flight item, which is the Theorem 1 quantity.

This costs two passes per iteration — a factor-2 over the idealised
one-pass-per-iteration accounting in the paper, recorded as such in
EXPERIMENTS.md — for a total of ``O(nu * r)`` passes.  The peak memory is the
reservoir plus the stored bases: ``O~(lambda * nu * n^{1/r} + nu^2 * r)``
constraints, matching Theorem 1.

The run itself (sample size, boost, the direct solve of small instances,
the engine loop, the result) is :func:`repro.core.clarkson.run_clarkson`;
this module only provides the reader's node tasks and
:class:`StreamingModel`, the streaming binding handed to that run.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .. import kernels
from ..core.accounting import StreamingMemory
from ..core.clarkson import ClarksonModel, run_clarkson
from ..core.engine import ViolationStats
from ..core.lptype import BasisResult, LPTypeProblem
from ..core.result import ResourceUsage
from ..core.sampling import exponential_keys
from ..fabric.topology import StreamTopology
from ..fabric.transport import SharedRef, resolve_transport
from ..api.config import StreamingConfig
from ..api.registry import register_model

__all__: list[str] = []

#: Number of stream items buffered per vectorised evaluation.  Bounded and
#: independent of ``n``: the simulator's live scratch per pass is
#: ``O(_CHUNK_ITEMS + m + nu * r)`` regardless of the stream length.
_CHUNK_ITEMS = 8192


# ---------------------------------------------------------------------- #
# Reader tasks: top-level functions so the process transport can ship them.
# The single stream-reader node holds the order, the RNG, and the stored
# bases; one task call is one full pass.
# ---------------------------------------------------------------------- #


def _chunk_weights(state: dict, chunk: np.ndarray) -> np.ndarray:
    """Relative implicit weights of one chunk, in one vectorised sweep."""
    exponents = state["problem"].violation_count_matrix(state["witnesses"], chunk)
    return state["boost"] ** (exponents - len(state["witnesses"])).astype(float)


def _reader_sampling_pass(state: dict, sample_size: int) -> tuple[dict, np.ndarray]:
    """One sampling pass: a weighted reservoir over on-the-fly implicit weights.

    Each chunk's exponential keys are drawn in a batch (one uniform per
    item, in stream order — exactly the uniforms the one-at-a-time
    reservoir would consume) and a running top-``m`` is kept, so the drawn
    sample has precisely the Efraimidis-Spirakis distribution while the
    live scratch stays ``O(chunk + m)``.
    """
    best_keys = np.empty(0, dtype=float)
    best_items = np.empty(0, dtype=int)
    with kernels.use_backend(state.get("kernel")):
        for chunk in StreamTopology.iter_chunks(state["order"], _CHUNK_ITEMS):
            weights = _chunk_weights(state, chunk)
            keys = exponential_keys(weights, rng=state["rng"])
            cand_keys = np.concatenate([best_keys, keys])
            cand_items = np.concatenate([best_items, chunk])
            if cand_keys.size > sample_size:
                top = np.argpartition(cand_keys, cand_keys.size - sample_size)
                top = top[cand_keys.size - sample_size:]
                best_keys, best_items = cand_keys[top], cand_items[top]
            else:
                best_keys, best_items = cand_keys, cand_items
    return state, np.sort(best_items)


def _reader_verification_pass(
    state: dict, witness
) -> tuple[dict, tuple[float, float, int]]:
    """One verification pass: violator weight / total weight / violator count.

    Each chunk is one fused kernel sweep (mask, violator count, violated and
    total weight in a single blocked pass); the reader node's state carries
    the kernel backend name so a process-transport worker executes on the
    same backend the coordinator resolved.
    """
    violator_count = 0
    violator_weight = 0.0
    total_weight = 0.0
    with kernels.use_backend(state.get("kernel")):
        for chunk in StreamTopology.iter_chunks(state["order"], _CHUNK_ITEMS):
            weights = _chunk_weights(state, chunk)
            stats = state["problem"].violation_sweep(
                witness, chunk, weights=weights, need_total=True
            )
            total_weight += float(stats.total_weight)
            violator_weight += float(stats.violated_weight)
            violator_count += int(stats.count)
    return state, (violator_weight, total_weight, violator_count)


def _reader_store_basis(state: dict, witness) -> tuple[dict, None]:
    """A successful iteration: remember its basis witness (implicit weights)."""
    state["witnesses"].append(witness)
    return state, None


class StreamingModel(ClarksonModel):
    """The stream reader's run: implicit stored-bases weights.

    ``draw`` is one sampling pass and ``measure`` one verification pass,
    each a task on the reader node; ``boost`` stores the basis of a
    successful iteration on the reader.  ``resources.passes`` and
    ``space_peak_items`` / ``space_peak_bits`` carry the streaming costs.  A
    direct solve costs one pass that stores the whole stream.
    """

    name = "streaming Clarkson"
    algorithm = direct_algorithm = "streaming_clarkson"
    run_metadata = (
        "algorithm", "r", "epsilon", "sample_size", "boost", "stored_bases",
        "transport", "kernel_backend",
    )
    direct_metadata = ("algorithm", "r", "kernel_backend")

    def __init__(
        self, problem: LPTypeProblem, config: StreamingConfig, warm_witnesses
    ) -> None:
        super().__init__(problem, config, warm_witnesses)
        self.topology = StreamTopology(
            problem.num_constraints,
            order=config.order,
            transport=resolve_transport(config.transport),
        )
        self.memory = StreamingMemory()
        self.nu = problem.combinatorial_dimension
        self.bit_size = problem.bit_size()
        # Warm re-solves (session API) seed the reader's stored bases with a
        # prior run's successful-iteration witnesses: the implicit weights
        # resume exactly where the prior run left them, and the carried
        # bases count toward the modelled footprint like freshly stored ones.
        self.num_bases = len(self.warm)
        self.chunks_per_pass = max(1, -(-self.topology.num_items // _CHUNK_ITEMS))

    def install(self, boost: float, backend: str) -> None:
        self.topology.share("problem", self.problem)
        self.topology.init_state(
            0,
            {
                "problem": SharedRef("problem"),
                "order": self.topology.order(),
                "rng": self.rng,
                "witnesses": list(self.warm),
                "boost": boost,
                "kernel": backend,
            },
        )

    def pay_direct(self) -> None:
        # The sample would contain the whole stream: one pass, full storage.
        self.topology.record_pass()
        n = self.topology.num_items
        self.memory.set_usage(items=n, bits=n * self.bit_size)

    def record_footprint(self, stored_items: int) -> None:
        items = stored_items + self.num_bases * self.nu + 1
        self.memory.set_usage(items=items, bits=items * self.bit_size)

    def draw(self, sample_size: int) -> np.ndarray:
        items = self.topology.run_pass(_reader_sampling_pass, sample_size)
        self.oracle_calls += self.chunks_per_pass
        # Peak footprint of the sampling pass: the reservoir, the stored
        # bases, and the single in-flight stream item.
        self.record_footprint(int(items.size))
        return items

    def measure(self, sample: np.ndarray, basis: BasisResult) -> ViolationStats:
        # The verification pass recomputes the implicit weights on the fly
        # (as a real streaming algorithm must) and accumulates the violator
        # and total weight chunk by chunk.
        violator_weight, total_weight, violator_count = self.topology.run_pass(
            _reader_verification_pass, basis.witness
        )
        self.oracle_calls += 2 * self.chunks_per_pass
        self.record_footprint(int(len(sample)))
        fraction = violator_weight / total_weight if total_weight > 0 else 0.0
        return ViolationStats(
            num_violators=violator_count, weight_fraction=fraction, context=basis
        )

    def boost(self, stats: ViolationStats) -> None:
        basis: BasisResult = stats.context
        self.topology.run_on(0, _reader_store_basis, basis.witness)
        self.num_bases += 1

    def usage(self) -> ResourceUsage:
        return replace(
            self.topology.usage(),
            space_peak_items=self.memory.peak_items,
            space_peak_bits=self.memory.peak_bits,
        )

    def metadata(self) -> dict:
        return {**super().metadata(), "stored_bases": self.num_bases}


register_model(
    "streaming",
    partial(run_clarkson, model=StreamingModel),
    config_cls=StreamingConfig,
    description=(
        "Multi-pass streaming Clarkson (Theorem 1): implicit stored-bases "
        "weights, two passes per iteration, O~(n^{1/r}) space."
    ),
    currencies=("passes", "space_peak_items", "space_peak_bits"),
    transports=("inprocess", "process", "tcp"),
    warm_restart=True,
)
