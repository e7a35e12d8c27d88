"""The per-solve context: everything one solve carries besides its arguments.

Budgets, progress feeds, checkpoints, fault plans, recovery notes, the
session's pinned transport and its shared-memory pin are *request-level*
concerns; the drivers stay oblivious to them.  They travel together in one
frozen :class:`SolveContext` held by one :mod:`contextvars` variable, so a
solve's state is installed in one place and read field by field where it
matters:

* the engine loop reads ``meter``, ``tap`` and ``checkpoints`` once per run;
* the topologies charge every measured message to ``meter`` and consult
  ``fault_plan`` per node dispatch, and the round ledger feeds ``tap``;
* the transports consult ``fault_plan`` on every delivery, and the
  supervised and cluster transports report into ``recovery``;
* :func:`~repro.fabric.transport.resolve_transport` hands out ``transport``
  when its kind matches, and the shared-memory store co-owns every export
  under ``shm_pin``.

:func:`solve_scope` installs a copy of the current context with some fields
replaced for the extent of a ``with`` block.  A field passed as ``None`` is
left alone, not cleared: the service installs a meter per ticket and the
session's inner scope (``meter=None`` when the caller gave no budget) must
not drop it.  Context variables do not cross thread-pool boundaries; a
worker thread enters its own scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only (fabric and resilience import core)
    from ..fabric.transport import Transport
    from ..resilience.faults import FaultPlan, RecoveryNotes
    from .budget import BudgetMeter, CheckpointStore, ProgressTap

__all__ = ["SolveContext", "solve_context", "solve_scope"]


@dataclass(frozen=True)
class SolveContext:
    """The request-level state of one solve; every field defaults to ``None``.

    Attributes
    ----------
    meter:
        :class:`~repro.core.budget.BudgetMeter` enforcing the request's
        resource budget.
    tap:
        :class:`~repro.core.budget.ProgressTap` receiving per-iteration and
        per-round progress events.
    checkpoints:
        :class:`~repro.core.budget.CheckpointStore` snapshotting the engine's
        witnesses after successful iterations.
    fault_plan:
        :class:`~repro.resilience.faults.FaultPlan` consulted at the fabric's
        probe points.
    recovery:
        :class:`~repro.resilience.faults.RecoveryNotes` the supervised and
        cluster transports report restarts and degradation into.
    transport:
        The session's long-lived :class:`~repro.fabric.transport.Transport`,
        handed to every driver that asks for a transport of its kind.
    shm_pin:
        Owner token that co-owns every shared-memory export made in scope,
        so the segment outlives one solve (the API session's pin).
    """

    meter: Optional["BudgetMeter"] = None
    tap: Optional["ProgressTap"] = None
    checkpoints: Optional["CheckpointStore"] = None
    fault_plan: Optional["FaultPlan"] = None
    recovery: Optional["RecoveryNotes"] = None
    transport: Optional["Transport"] = None
    shm_pin: Optional[str] = None


_CONTEXT: ContextVar[SolveContext] = ContextVar(
    "repro_solve_context", default=SolveContext()
)


def solve_context() -> SolveContext:
    """The context of the enclosing solve (the empty context outside one)."""
    return _CONTEXT.get()


@contextmanager
def solve_scope(**fields: Any) -> Iterator[SolveContext]:
    """Install the current context with ``fields`` replaced, for one block.

    Fields passed as ``None`` keep their enclosing value, so callers can
    pass a maybe-present object through unconditionally.  Yields the
    installed context.
    """
    context = replace(
        _CONTEXT.get(),
        **{name: value for name, value in fields.items() if value is not None},
    )
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)
