"""Seeded, deterministic fault injection for the fabric.

A :class:`FaultPlan` is a scripted sequence of infrastructure failures —
worker crashes, dropped / delayed / corrupted messages, slow nodes — that
the transports and topologies consult at well-defined *probe points*.  Plans
travel in the per-solve context (``solve_scope(fault_plan=plan)``, next to
the budget meter and the progress tap of :mod:`repro.core.context`), so
chaos tests inject faults without the drivers knowing, and the whole
scenario is reproducible from a seed: :meth:`FaultPlan.seeded` derives the
fault script deterministically.  Context variables do not cross thread-pool
boundaries: to reach ``solve_many(max_workers > 1)`` worker threads, attach
the plan to the shared transport with ``transport.attach_fault_plan(plan)``
instead.

Probe points
------------

``"dispatch"``
    Consulted by the process and TCP transports once per slot per task
    batch, *before* the batch is shipped.  A matching ``worker_crash`` spec
    SIGKILLs the worker process behind that slot, exercising the real
    crash-detection and recovery path.
``"deliver"``
    Consulted by every transport's ``deliver`` (the measured wire hop).  A
    matching ``message_drop`` / ``message_delay`` / ``payload_corruption``
    spec perturbs the delivery; the fabric's detect-and-retransmit semantics
    (see :func:`faulted_delivery`) keep the delivered payload canonical, so
    faulted solves stay bit-identical.
``"node"``
    Consulted by :meth:`repro.fabric.topology.Topology.run_all` once per
    node per round.  A matching ``slow_node`` spec stalls that node's
    dispatch by ``delay_s`` (latency, not divergence).

Because each probe point is hit in a deterministic order for a fixed solve,
the pair (solver seed, fault seed) pins the entire chaos scenario.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Optional, Sequence

from ..core.exceptions import InvalidConfigError

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "RecoveryNotes",
    "faulted_delivery",
]

#: kind -> probe point that enacts it.
FAULT_KINDS = {
    "worker_crash": "dispatch",
    "message_drop": "deliver",
    "message_delay": "deliver",
    "payload_corruption": "deliver",
    "slow_node": "node",
}


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        1-based occurrence of the probe point at which the fault fires
        (counted per probe point; per ``(probe, node)`` when ``node`` is
        pinned, globally per probe otherwise).
    node:
        Restrict the fault to one worker index (``"dispatch"``) or node id
        (``"node"``); ``None`` matches any.
    count:
        How many consecutive occurrences fire, starting at ``at``.
    delay_s:
        Stall duration for ``message_delay`` / ``slow_node`` (and the
        retransmission pause modelled for drops).
    """

    kind: str
    at: int = 1
    node: Optional[int] = None
    count: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InvalidConfigError(
                f"FaultSpec.kind must be one of {sorted(FAULT_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.at < 1:
            raise InvalidConfigError(f"FaultSpec.at must be >= 1, got {self.at!r}")
        if self.count < 1:
            raise InvalidConfigError(
                f"FaultSpec.count must be >= 1, got {self.count!r}"
            )
        if self.delay_s < 0:
            raise InvalidConfigError(
                f"FaultSpec.delay_s must be >= 0, got {self.delay_s!r}"
            )

    @property
    def probe(self) -> str:
        return FAULT_KINDS[self.kind]


class FaultPlan:
    """A deterministic script of faults, consulted at probe points.

    Thread-safe: occurrence counters are guarded by a lock so concurrent
    ``solve_many`` batches can share one plan.  Every fault that actually
    fires is recorded in :attr:`fired` (``(probe, node, kind)`` triples) so
    tests can assert the scenario they scripted really happened.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), *, seed: Optional[int] = None):
        self.specs = tuple(specs)
        self.seed = seed
        self.fired: list[tuple[str, Optional[int], str]] = []
        self._lock = threading.Lock()
        self._global_counts: dict[str, int] = {}
        self._node_counts: dict[tuple[str, Optional[int]], int] = {}

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        kinds: Sequence[str] = tuple(FAULT_KINDS),
        num_faults: int = 3,
        max_at: int = 8,
        max_nodes: int = 4,
        delay_s: float = 0.001,
    ) -> "FaultPlan":
        """Derive a reproducible fault script from ``seed``.

        The same seed always yields the same specs, so a failing chaos run
        is replayed exactly by re-running with its seed.
        """
        rng = Random(seed)
        specs = []
        for _ in range(num_faults):
            kind = kinds[rng.randrange(len(kinds))]
            node = rng.randrange(max_nodes) if rng.random() < 0.5 else None
            specs.append(
                FaultSpec(
                    kind=kind,
                    at=rng.randrange(1, max_at + 1),
                    node=node,
                    delay_s=delay_s if kind in ("message_delay", "slow_node") else 0.0,
                )
            )
        return cls(specs, seed=seed)

    def take(self, probe: str, node: Optional[int] = None) -> Optional[FaultSpec]:
        """Advance the probe's counters; return the spec that fires, if any.

        Specs pinned to a node are matched against the per-``(probe, node)``
        occurrence count; unpinned specs against the global per-probe count.
        The first matching spec wins and is logged in :attr:`fired`.
        """
        with self._lock:
            global_n = self._global_counts.get(probe, 0) + 1
            self._global_counts[probe] = global_n
            node_key = (probe, node)
            node_n = self._node_counts.get(node_key, 0) + 1
            self._node_counts[node_key] = node_n
            for spec in self.specs:
                if spec.probe != probe:
                    continue
                if spec.node is not None:
                    if spec.node != node:
                        continue
                    occurrence = node_n
                else:
                    occurrence = global_n
                if spec.at <= occurrence < spec.at + spec.count:
                    self.fired.append((probe, node, spec.kind))
                    return spec
        return None

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "specs": [
                {
                    "kind": s.kind,
                    "at": s.at,
                    "node": s.node,
                    "count": s.count,
                    "delay_s": s.delay_s,
                }
                for s in self.specs
            ],
            "fired": list(self.fired),
        }


def faulted_delivery(
    plan: FaultPlan, payload: Any, deliver_once: Callable[[Any], Any]
) -> Any:
    """Deliver ``payload`` through the plan's ``"deliver"`` probe.

    The fabric models a reliable link: a dropped first transmission is
    detected (missing acknowledgement) and retransmitted from the sender's
    pristine copy; a corrupted transmission is detected by checksum mismatch
    over the canonical wire bytes and likewise retransmitted.  Either way
    the *delivered* payload is canonical — latency changes, bits do not —
    which is what keeps faulted solves bit-identical to fault-free runs.
    """
    spec = plan.take("deliver")
    if spec is None:
        return deliver_once(payload)
    if spec.kind == "message_delay":
        if spec.delay_s > 0:
            time.sleep(spec.delay_s)
        return deliver_once(payload)
    if spec.kind == "message_drop":
        # First transmission lost; the sender notices the missing ack and
        # retransmits after a pause.
        if spec.delay_s > 0:
            time.sleep(spec.delay_s)
        return deliver_once(payload)
    if spec.kind == "payload_corruption":
        raw = payload.to_bytes()
        garbled = bytearray(raw)
        if garbled:
            garbled[len(garbled) // 2] ^= 0xFF
        if zlib.crc32(bytes(garbled)) == zlib.crc32(raw):  # pragma: no cover
            raise AssertionError("corruption went undetected by the checksum")
        # Mismatch detected -> the receiver discards the garbled frame and
        # the sender retransmits the pristine payload.
        return deliver_once(payload)
    return deliver_once(payload)


@dataclass
class RecoveryNotes:
    """What the resilience layer did during one solve.

    The process and TCP transports increment :attr:`restarts` per worker
    replacement and flip :attr:`degraded` when they fall back to in-process
    execution;
    the session folds the notes into the result's
    :attr:`~repro.core.result.ResourceUsage.transport_retries` and metadata
    after the run.
    """

    restarts: int = 0
    degraded: bool = False
