"""Fault tolerance for the fabric and the service.

Two pieces, spanning the stack:

* :mod:`~repro.resilience.faults` — seeded, deterministic fault injection
  (:class:`FaultPlan`) consulted by transports and topologies through the
  per-solve context (``solve_scope(fault_plan=...)``), plus the
  :class:`RecoveryNotes` that report what recovery did.
* :mod:`~repro.resilience.circuit` — the per-model :class:`CircuitBreaker`
  behind the service's structured 503s.

Worker crash recovery — the per-session journal, the restart ladder and
degradation to in-process execution — is part of every out-of-process
transport: :class:`~repro.fabric.transport.JournaledTransport`.  It is the
one recovery layer: no worker loss leaves it, so nothing above it retries.

See ``docs/resilience.md`` for the fault model and recovery guarantees.
"""

from .circuit import CircuitBreaker
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    RecoveryNotes,
    faulted_delivery,
)

__all__ = [
    "FAULT_KINDS",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "RecoveryNotes",
    "faulted_delivery",
]
