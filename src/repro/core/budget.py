"""Per-request resource budgets for the session/service front end.

A :class:`ResourceBudget` declares hard limits on one solve — wall time,
meta-algorithm iterations, measured communication bits — and a
:class:`BudgetMeter` enforces them cooperatively: the
:class:`~repro.core.engine.ClarksonEngine` charges one iteration per loop
pass and the fabric topologies charge every measured message, so a budgeted
request aborts at the next iteration or message boundary with a
:class:`~repro.core.exceptions.BudgetExceededError` carrying the partial
:class:`~repro.core.result.ResourceUsage`.  Enforcement is cooperative at
exactly those boundaries: a solve that never enters the engine loop and
moves no messages (a tiny instance handled by the direct-solve path, or a
session fast-path re-certification) runs to completion even if its wall
budget expires mid-way.

The active meter travels in the per-solve context
(:func:`repro.core.context.solve_scope`) rather than through the driver
signatures: budgets are a *service-level* concern and the drivers stay
oblivious (an unbudgeted solve never even looks at the clock).
:func:`start_meter` builds the meter one solve installs as ``meter``.

The same context carries **progress taps** (``tap``): a :class:`ProgressTap`
receives one event per engine iteration (emitted by the engine loop) and one
per communication round (emitted by the topology ledger), which is how the
HTTP front end streams per-round progress over SSE without the drivers
knowing a network exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .exceptions import BudgetExceededError, InvalidConfigError
from .result import ResourceUsage

__all__ = [
    "ResourceBudget",
    "BudgetMeter",
    "ProgressTap",
    "start_meter",
]


@dataclass(frozen=True)
class ResourceBudget:
    """Hard per-request limits; ``None`` disables a currency.

    Attributes
    ----------
    wall_time_s:
        Wall-clock limit in seconds, measured from the meter's start (the
        service anchors it at execution start; a request *deadline* is the
        same mechanism anchored at submission).
    iterations:
        Maximum meta-algorithm iterations across the request.
    communication_bits:
        Maximum measured communication bits across the request.
    """

    wall_time_s: Optional[float] = None
    iterations: Optional[int] = None
    communication_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wall_time_s is not None and not self.wall_time_s > 0:
            raise InvalidConfigError(
                f"ResourceBudget.wall_time_s must be > 0 (got {self.wall_time_s!r})"
            )
        if self.iterations is not None and self.iterations < 1:
            raise InvalidConfigError(
                f"ResourceBudget.iterations must be >= 1 (got {self.iterations!r})"
            )
        if self.communication_bits is not None and self.communication_bits < 1:
            raise InvalidConfigError(
                "ResourceBudget.communication_bits must be >= 1 "
                f"(got {self.communication_bits!r})"
            )

    @property
    def unlimited(self) -> bool:
        return (
            self.wall_time_s is None
            and self.iterations is None
            and self.communication_bits is None
        )


class BudgetMeter:
    """Running totals of one budgeted request, with trip-wire checks.

    ``started_at`` (a :func:`time.monotonic` stamp) defaults to "now"; the
    service passes the submission stamp when enforcing a queue-inclusive
    deadline.
    """

    def __init__(
        self, budget: ResourceBudget, started_at: Optional[float] = None
    ) -> None:
        self.budget = budget
        self.started_at = time.monotonic() if started_at is None else float(started_at)
        self.iterations = 0
        self.communication_bits = 0

    def elapsed_s(self) -> float:
        return time.monotonic() - self.started_at

    def usage(self) -> ResourceUsage:
        """Partial usage in the currencies the meter tracks."""
        return ResourceUsage(
            total_communication_bits=self.communication_bits,
        )

    def _trip(self, reason: str, detail: str) -> None:
        raise BudgetExceededError(
            f"resource budget exceeded: {detail} "
            f"(after {self.elapsed_s():.3f}s, {self.iterations} iterations, "
            f"{self.communication_bits} communication bits)",
            reason=reason,
            elapsed_s=self.elapsed_s(),
            iterations=self.iterations,
            communication_bits=self.communication_bits,
            usage=self.usage(),
        )

    def check_wall_time(self) -> None:
        limit = self.budget.wall_time_s
        if limit is not None and self.elapsed_s() > limit:
            self._trip("wall_time", f"wall time limit of {limit:g}s")

    def charge_iteration(self) -> None:
        """One engine-loop iteration is about to run: check, then count it."""
        self.check_wall_time()
        limit = self.budget.iterations
        if limit is not None and self.iterations >= limit:
            self._trip("iterations", f"iteration limit of {limit}")
        self.iterations += 1

    def charge_bits(self, bits: int) -> None:
        """One measured message moved ``bits`` bits: count, then check."""
        self.communication_bits += int(bits)
        limit = self.budget.communication_bits
        if limit is not None and self.communication_bits > limit:
            self._trip(
                "communication_bits", f"communication limit of {limit} bits"
            )
        self.check_wall_time()


def start_meter(
    budget: Optional[ResourceBudget], started_at: Optional[float] = None
) -> Optional[BudgetMeter]:
    """A meter enforcing ``budget`` from ``started_at`` (default: now).

    ``None`` (or an all-``None`` budget) yields no meter, keeping the
    unbudgeted hot path free of clock reads.  Meters do not nest: the
    innermost scope that installs one replaces the outer one.
    """
    if budget is None or budget.unlimited:
        return None
    return BudgetMeter(budget, started_at=started_at)


class ProgressTap:
    """Receives per-iteration / per-round progress events of one solve.

    A tap wraps one callback; the engine loop emits an ``"iteration"`` event
    per meta-algorithm iteration and the topology ledger emits a ``"round"``
    event per recorded communication round (stream passes included).  Every
    event is a flat dict with an ``"event"`` key plus the emitter's fields,
    delivered synchronously in the solving thread — callbacks must be cheap
    and thread-safe (the service front end appends to a per-ticket queue).
    """

    __slots__ = ("_callback",)

    def __init__(self, callback: Callable[[dict], Any]) -> None:
        self._callback = callback

    def emit(self, event: str, **fields: Any) -> None:
        self._callback({"event": event, **fields})

