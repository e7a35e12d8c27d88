"""Fault tolerance for the fabric, the session layer, and the service.

Three pieces, spanning the stack:

* :mod:`~repro.resilience.faults` — seeded, deterministic fault injection
  (:class:`FaultPlan`) consulted by transports and topologies through the
  per-solve context (``solve_scope(fault_plan=...)``), plus the
  :class:`RecoveryNotes` that report what recovery did.
* :mod:`~repro.resilience.retry` — the shared :class:`RetryPolicy`.
* :mod:`~repro.resilience.circuit` — the per-model :class:`CircuitBreaker`
  behind the service's structured 503s.

Worker crash recovery — the per-session journal, the restart ladder and
degradation to in-process execution — is part of every out-of-process
transport: :class:`~repro.fabric.transport.JournaledTransport`.
Checkpointing (:class:`CheckpointStore`) lives in :mod:`repro.core.budget`
next to the budget meter and the progress tap, and is re-exported here.

See ``docs/resilience.md`` for the fault model and recovery guarantees.
"""

from ..core.budget import Checkpoint, CheckpointStore
from .circuit import CircuitBreaker
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    RecoveryNotes,
    faulted_delivery,
)
from .retry import RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "Checkpoint",
    "CheckpointStore",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "RecoveryNotes",
    "RetryPolicy",
    "faulted_delivery",
]

