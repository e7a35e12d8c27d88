"""Result records returned by every solver driver in the library.

All drivers (sequential, streaming, coordinator, MPC, and the baselines)
return a :class:`SolveResult` so that examples, tests, and the benchmark
harness can treat them uniformly: the optimum itself plus the exact resource
costs the paper's theorems are about.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

import numpy as np

__all__ = [
    "CommunicationSummary",
    "IterationRecord",
    "ResourceUsage",
    "SolveResult",
    "WarmStats",
]


@dataclass(frozen=True)
class IterationRecord:
    """Trace of a single iteration of the meta-algorithm.

    Attributes
    ----------
    iteration:
        Zero-based iteration number.
    sample_size:
        Number of constraints in the eps-net sample of this iteration.
    num_violators:
        Number of constraints violating the basis computed in this iteration.
    violator_weight_fraction:
        ``w(V) / w(S)`` for this iteration (the success test compares it to
        eps).
    successful:
        Whether the iteration passed the success test and boosted weights.
    basis_indices:
        Indices of the basis computed in this iteration.
    """

    iteration: int
    sample_size: int
    num_violators: int
    violator_weight_fraction: float
    successful: bool
    basis_indices: tuple[int, ...] = ()


@dataclass
class ResourceUsage:
    """Resource costs of a run, in the currencies of the three models.

    Fields irrelevant to a particular model are left at zero (e.g. a
    streaming run has no communication).  All bit counts follow the
    :class:`repro.core.accounting.BitCostModel` used by the run.
    """

    passes: int = 0
    space_peak_items: int = 0
    space_peak_bits: int = 0
    rounds: int = 0
    total_communication_bits: int = 0
    max_message_bits: int = 0
    max_machine_load_bits: int = 0
    machine_count: int = 0
    oracle_calls: int = 0
    transport_retries: int = 0
    per_round: list[Mapping[str, int]] = field(default_factory=list)

    #: Fields that add up across independent runs (``mode="sum"``).
    _ADDITIVE_FIELDS = (
        "passes",
        "space_peak_items",
        "space_peak_bits",
        "rounds",
        "total_communication_bits",
        "machine_count",
        "oracle_calls",
        "transport_retries",
    )
    #: Per-message / per-machine maxima: summing them is meaningless, so they
    #: aggregate by maximum in both modes.
    _PEAK_FIELDS = ("max_message_bits", "max_machine_load_bits")

    @classmethod
    def aggregate(
        cls, usages: Iterable["ResourceUsage"], mode: str = "max"
    ) -> "ResourceUsage":
        """Combine the usage records of several runs into one summary.

        Parameters
        ----------
        usages:
            The records to combine (an empty iterable yields an all-zero
            record).
        mode:
            ``"max"`` takes the point-wise maximum of every field (combining
            sub-phases of one run).  ``"sum"`` adds the additive currencies —
            passes, space, rounds, communication, machine counts — across
            independent runs (a batch total), while ``max_message_bits`` and
            ``max_machine_load_bits`` still aggregate by maximum because they
            are per-message / per-machine peaks.

        The ``per_round`` logs are not aggregated; the returned record has an
        empty log.
        """
        if mode not in ("max", "sum"):
            raise ValueError(f"mode must be 'max' or 'sum', got {mode!r}")
        usages = list(usages)
        merged = cls()
        if not usages:
            return merged
        for name in cls._ADDITIVE_FIELDS:
            values = [getattr(usage, name) for usage in usages]
            setattr(merged, name, sum(values) if mode == "sum" else max(values))
        for name in cls._PEAK_FIELDS:
            setattr(merged, name, max(getattr(usage, name) for usage in usages))
        return merged


@dataclass(frozen=True)
class CommunicationSummary:
    """The communication story of one run, in the fabric's four currencies.

    Derived from :class:`ResourceUsage` by ``SolveResult.communication`` —
    the single code path every model's trace goes through.  ``rounds`` is the
    model's synchronisation count (coordinator/MPC rounds, or stream passes);
    ``per_round`` is the topology ledger: one entry per round with the
    measured bits (and, where meaningful, the per-node load) of that round.
    """

    rounds: int
    total_bits: int
    max_message_bits: int
    max_load_bits: int
    per_round: tuple[Mapping[str, int], ...] = ()

    def summary(self) -> dict:
        """A flat dict convenient for printing communication tables."""
        return {
            "rounds": self.rounds,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "max_load_bits": self.max_load_bits,
        }


@dataclass
class WarmStats:
    """Warm-start bookkeeping of one session solve.

    Populated only by the session API (``repro.session``): a plain
    ``repro.solve()`` leaves ``SolveResult.warm`` at ``None``.  The
    determinism contract of warm re-solves — a warm solve certifies the
    same basis as a cold solve on the same instance — is pinned by the
    session test suite; these stats record how much prior state the warm
    solve actually reused.

    Attributes
    ----------
    warm_start:
        Whether the run started from carried weight state (``False`` for the
        session's first, cold solve — which still tracks state for later
        re-solves).
    fast_path:
        Whether the prior certified basis was re-certified with a single
        violation sweep, skipping the engine loop entirely.
    reused_bases:
        Number of prior successful-iteration bases whose witnesses seeded
        this run's weight state.
    new_bases:
        Successful iterations this run added to the carried state.
    witnesses:
        The carried-plus-new basis witnesses (session plumbing for the next
        warm re-solve; excluded from ``repr`` and serialisation).
    """

    warm_start: bool = False
    fast_path: bool = False
    reused_bases: int = 0
    new_bases: int = 0
    witnesses: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self) -> dict:
        """JSON-ready stats (the witness payloads themselves are dropped)."""
        return {
            "warm_start": bool(self.warm_start),
            "fast_path": bool(self.fast_path),
            "reused_bases": int(self.reused_bases),
            "new_bases": int(self.new_bases),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WarmStats":
        return cls(
            warm_start=bool(payload.get("warm_start", False)),
            fast_path=bool(payload.get("fast_path", False)),
            reused_bases=int(payload.get("reused_bases", 0)),
            new_bases=int(payload.get("new_bases", 0)),
        )


# ---------------------------------------------------------------------- #
# Tagged JSON encoding for result payloads (values, witnesses, metadata).
# Arrays, tuples, and the library's own frozen value/witness dataclasses
# (LexicographicValue, Ball, MEBValue, ...) round-trip; everything else must
# already be JSON-representable.
# ---------------------------------------------------------------------- #

_TRUSTED_MODULE_PREFIX = "repro."


def _encode_value(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.bool_, np.integer)):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {
            "__kind__": "ndarray",
            "dtype": str(obj.dtype),
            "data": obj.tolist(),
        }
    if isinstance(obj, tuple):
        return {"__kind__": "tuple", "items": [_encode_value(v) for v in obj]}
    if isinstance(obj, list):
        return [_encode_value(v) for v in obj]
    if isinstance(obj, Mapping):
        return {str(k): _encode_value(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        if not cls.__module__.startswith(_TRUSTED_MODULE_PREFIX):
            raise TypeError(
                f"cannot serialise dataclass {cls.__qualname__} from untrusted "
                f"module {cls.__module__!r}"
            )
        return {
            "__kind__": "dataclass",
            "cls": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                f.name: _encode_value(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.init
            },
        }
    raise TypeError(
        f"cannot serialise {type(obj).__name__} value {obj!r} for SolveResult.to_dict"
    )


def _decode_value(obj: Any) -> Any:
    if isinstance(obj, list):
        return [_decode_value(v) for v in obj]
    if not isinstance(obj, Mapping):
        return obj
    kind = obj.get("__kind__")
    if kind == "ndarray":
        return np.asarray(obj["data"], dtype=np.dtype(obj["dtype"]))
    if kind == "tuple":
        return tuple(_decode_value(v) for v in obj["items"])
    if kind == "dataclass":
        module_name, _, qualname = obj["cls"].partition(":")
        if not module_name.startswith(_TRUSTED_MODULE_PREFIX):
            raise ValueError(
                f"refusing to decode dataclass from untrusted module {module_name!r}"
            )
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        return target(**{k: _decode_value(v) for k, v in obj["fields"].items()})
    return {k: _decode_value(v) for k, v in obj.items()}


@dataclass
class SolveResult:
    """The outcome of one solver run.

    Attributes
    ----------
    value:
        ``f(S)``: the optimal value of the LP-type problem (problem-specific
        type; for LP it is a lexicographic value object, whose ``.objective``
        is the scalar optimum).
    witness:
        The optimal point.
    basis_indices:
        Indices of a basis of the full constraint set that certifies
        ``value``.
    iterations:
        Total number of meta-algorithm iterations executed.
    successful_iterations:
        Number of iterations that passed the success test.
    resources:
        Exact resource usage of the run.
    trace:
        Optional per-iteration trace (enabled with ``keep_trace=True``).
    metadata:
        Free-form run metadata (algorithm name, parameters, seeds, ...).
    warm:
        Warm-start reuse stats, populated only by the session API
        (``None`` for plain ``repro.solve()`` calls).
    """

    value: Any
    witness: Any
    basis_indices: tuple[int, ...]
    iterations: int = 0
    successful_iterations: int = 0
    resources: ResourceUsage = field(default_factory=ResourceUsage)
    trace: list[IterationRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    warm: Optional[WarmStats] = None

    @property
    def communication(self) -> CommunicationSummary:
        """Per-run communication trace, uniform across every model.

        Streaming runs report their pass count as ``rounds`` (they move no
        bits); coordinator and MPC runs report the topology ledger verbatim.
        """
        res = self.resources
        return CommunicationSummary(
            rounds=res.rounds if res.rounds else res.passes,
            total_bits=res.total_communication_bits,
            max_message_bits=res.max_message_bits,
            max_load_bits=res.max_machine_load_bits,
            per_round=tuple(dict(entry) for entry in res.per_round),
        )

    def to_dict(self) -> dict:
        """A JSON-serialisable description of the full result.

        Everything needed to rebuild the result via :meth:`from_dict` —
        value, witness, basis, trace, resources (including the ``per_round``
        ledgers), metadata, and the warm-start stats — plus the derived
        ``communication`` summary for service consumers that only read the
        wire form.  Arrays and the library's frozen value/witness types
        (``LexicographicValue``, ``Ball``, ...) are encoded with explicit
        type tags; ``WarmStats.witnesses`` (session plumbing) is dropped.
        """
        return {
            "schema": "repro-result/1",
            "value": _encode_value(self.value),
            "witness": _encode_value(self.witness),
            "basis_indices": [int(i) for i in self.basis_indices],
            "iterations": int(self.iterations),
            "successful_iterations": int(self.successful_iterations),
            "resources": {
                **{
                    name: int(getattr(self.resources, name))
                    for name in ResourceUsage._ADDITIVE_FIELDS
                    + ResourceUsage._PEAK_FIELDS
                },
                "per_round": [
                    {str(k): int(v) for k, v in entry.items()}
                    for entry in self.resources.per_round
                ],
            },
            "communication": {
                **self.communication.summary(),
                "per_round": [
                    {str(k): int(v) for k, v in entry.items()}
                    for entry in self.communication.per_round
                ],
            },
            "trace": [
                {
                    "iteration": rec.iteration,
                    "sample_size": rec.sample_size,
                    "num_violators": rec.num_violators,
                    "violator_weight_fraction": rec.violator_weight_fraction,
                    "successful": rec.successful,
                    "basis_indices": [int(i) for i in rec.basis_indices],
                }
                for rec in self.trace
            ],
            "metadata": _encode_value(dict(self.metadata)),
            "warm": self.warm.to_dict() if self.warm is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolveResult":
        """Rebuild a :class:`SolveResult` from :meth:`to_dict` output.

        The derived ``communication`` block is ignored (it is recomputed from
        the resources on access); unknown resource fields are ignored so
        newer writers stay readable by older readers.
        """
        raw_resources = dict(payload.get("resources", {}))
        per_round = [
            {str(k): int(v) for k, v in entry.items()}
            for entry in raw_resources.pop("per_round", [])
        ]
        known = set(
            ResourceUsage._ADDITIVE_FIELDS + ResourceUsage._PEAK_FIELDS
        )
        resources = ResourceUsage(
            **{k: int(v) for k, v in raw_resources.items() if k in known},
            per_round=per_round,
        )
        trace = [
            IterationRecord(
                iteration=int(rec["iteration"]),
                sample_size=int(rec["sample_size"]),
                num_violators=int(rec["num_violators"]),
                violator_weight_fraction=float(rec["violator_weight_fraction"]),
                successful=bool(rec["successful"]),
                basis_indices=tuple(int(i) for i in rec.get("basis_indices", ())),
            )
            for rec in payload.get("trace", [])
        ]
        warm_payload = payload.get("warm")
        return cls(
            value=_decode_value(payload.get("value")),
            witness=_decode_value(payload.get("witness")),
            basis_indices=tuple(int(i) for i in payload.get("basis_indices", ())),
            iterations=int(payload.get("iterations", 0)),
            successful_iterations=int(payload.get("successful_iterations", 0)),
            resources=resources,
            trace=trace,
            metadata=_decode_value(dict(payload.get("metadata", {}))),
            warm=WarmStats.from_dict(warm_payload) if warm_payload else None,
        )

    def summary(self) -> dict:
        """A flat dict convenient for printing benchmark tables."""
        return {
            "value": getattr(self.value, "objective", self.value),
            "iterations": self.iterations,
            "successful_iterations": self.successful_iterations,
            "passes": self.resources.passes,
            "rounds": self.resources.rounds,
            "space_peak_items": self.resources.space_peak_items,
            "space_peak_bits": self.resources.space_peak_bits,
            "communication_bits": self.resources.total_communication_bits,
            "max_machine_load_bits": self.resources.max_machine_load_bits,
            "oracle_calls": self.resources.oracle_calls,
            **{f"meta_{k}": v for k, v in self.metadata.items()},
        }
