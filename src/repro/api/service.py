"""Async solver service: a queued front end over one long-lived session.

:class:`SolverService` is the heavy-traffic face of the library: requests
are submitted (not awaited), run on a bounded pool of worker threads that
share one :class:`~repro.api.session.Session` (and therefore one transport /
worker pool), and come back as :class:`Ticket` futures.  Each request can
carry

* a **deadline** (``deadline_s``, anchored at submission: queue wait counts),
* a **resource budget** (:class:`~repro.core.budget.ResourceBudget`:
  wall time, meta-algorithm iterations, communication bits).

A request that exhausts either aborts with
:class:`~repro.core.exceptions.BudgetExceededError` carrying the partial
:class:`~repro.core.result.ResourceUsage`; the ticket's ``error`` records
it.  Responses serialise with ``SolveResult.to_dict()`` for wire transport.

A ticket runs exactly once: the session's journaled transport absorbs every
worker loss (restart or in-process degradation, bit for bit), so no
transport failure reaches the service to retry.  What does reach it — a
node task raising in a worker, or any other
:class:`~repro.core.exceptions.CommunicationError` — fails the ticket and
counts against the per-model circuit breaker.

Usage::

    with SolverService(model="streaming", max_workers=4) as svc:
        tickets = [svc.submit(p, deadline_s=10.0) for p in problems]
        results = [t.result() for t in tickets]
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..core.budget import ProgressTap, ResourceBudget, start_meter
from ..core.context import solve_scope
from ..core.exceptions import BudgetExceededError, CommunicationError, SessionError
from ..core.result import SolveResult
from ..resilience.circuit import CircuitBreaker
from .config import SolverConfig
from .session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.lptype import LPTypeProblem

__all__ = ["SolverService", "Ticket"]

#: Ticket lifecycle states (monotonic left to right).
TICKET_STATES = ("queued", "running", "done", "failed", "cancelled")


class Ticket:
    """A submitted request: a future plus submission bookkeeping.

    ``result(timeout)`` blocks for the :class:`SolveResult` (re-raising the
    request's error, if any); ``status`` is one of :data:`TICKET_STATES`.
    """

    def __init__(
        self,
        ticket_id: int,
        deadline_s: Optional[float],
        budget: Optional[ResourceBudget],
        tenant: Optional[str] = None,
    ) -> None:
        self.id = int(ticket_id)
        self.deadline_s = deadline_s
        self.budget = budget
        self.tenant = tenant
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._future: Future = Future()

    # The service drives these transitions; users only read.

    @property
    def status(self) -> str:
        if self._future.cancelled():
            return "cancelled"
        if self._future.done():
            return "failed" if self._future.exception() is not None else "done"
        if self.started_at is not None:
            return "running"
        return "queued"

    @property
    def error(self) -> Optional[BaseException]:
        """The request's exception, if it has failed (non-blocking)."""
        if not self._future.done() or self._future.cancelled():
            return None
        return self._future.exception()

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        """Cancel a still-queued request (running requests are not stopped)."""
        return self._future.cancel()

    def result(self, timeout: Optional[float] = None) -> SolveResult:
        """Block for the result; re-raises the request's error on failure."""
        return self._future.result(timeout=timeout)

    def wait_s(self) -> Optional[float]:
        """Seconds the request sat in the queue (``None`` while queued)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


class SolverService:
    """Bounded-concurrency queued solving over one shared session.

    Parameters
    ----------
    model, config, **overrides:
        As in :func:`repro.solve`; resolved once into the shared session
        (whose long-lived transport every request reuses).
    max_workers:
        Worker-thread count — the concurrency bound.  Excess submissions
        queue (FIFO per the executor).
    session:
        Optional externally-owned :class:`Session` to serve from instead of
        creating one (it is *not* closed on shutdown).
    circuit_breaker:
        The per-service :class:`~repro.resilience.circuit.CircuitBreaker`;
        repeated infrastructure failures open it and :meth:`submit` sheds
        load with :class:`~repro.core.exceptions.CircuitOpenError`.
    """

    def __init__(
        self,
        model: str = "streaming",
        config: Optional[SolverConfig] = None,
        max_workers: int = 2,
        session: Optional[Session] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        **overrides: Any,
    ) -> None:
        if max_workers < 1:
            raise SessionError(f"max_workers must be >= 1 (got {max_workers!r})")
        self._owns_session = session is None
        self._session = session or Session(
            model=model, config=config, warm_tracking=False, **overrides
        )
        self._executor = ThreadPoolExecutor(
            max_workers=int(max_workers), thread_name_prefix="repro-service"
        )
        self.max_workers = int(max_workers)
        self.breaker = circuit_breaker or CircuitBreaker(
            failure_threshold=5,
            window_s=60.0,
            cooldown_s=1.0,
            model=self._session.spec.name,
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._shutdown = False
        self._counters = {state: 0 for state in ("submitted", "done", "failed", "cancelled")}
        self._running = 0
        self._tenant_counters: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting requests; optionally wait for in-flight ones.

        The service-owned session (and its worker pool) is only closed once
        every accepted ticket has drained — with ``wait=False`` that happens
        on a background thread, so queued work still completes instead of
        crashing into a closed session.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        self._executor.shutdown(wait=wait)
        if not self._owns_session:
            return
        if wait:
            self._session.close()
        else:
            threading.Thread(target=self._drain_and_close, daemon=True).start()

    def _drain_and_close(self) -> None:
        # A second executor.shutdown(wait=True) joins the worker threads.
        self._executor.shutdown(wait=True)
        self._session.close()

    @property
    def session(self) -> Session:
        return self._session

    def _bump(self, tenant: Optional[str], outcome: str) -> None:
        """Count one ticket outcome, attributed to its tenant (lock held)."""
        self._counters[outcome] += 1
        if tenant is not None:
            bucket = self._tenant_counters.setdefault(
                tenant,
                {state: 0 for state in ("submitted", "done", "failed", "cancelled")},
            )
            bucket[outcome] += 1

    def stats(self) -> dict:
        """Counters snapshot: outcomes, queue depth, per-tenant breakdown.

        ``submitted`` / ``done`` / ``failed`` / ``cancelled`` are lifetime
        ticket counts; ``running`` is the tickets executing right now,
        ``queue_depth`` the tickets accepted but not yet started, and
        ``tenants`` the same per-outcome counts broken down by the tenant
        passed at :meth:`submit` (tickets submitted without a tenant appear
        only in the totals).  This is the service's public introspection
        surface — the HTTP front end's ``/v1/usage`` and the test suite
        read it instead of reaching into privates.
        """
        with self._lock:
            finished = (
                self._counters["done"]
                + self._counters["failed"]
                + self._counters["cancelled"]
            )
            queued = self._counters["submitted"] - finished - self._running
            return {
                **dict(self._counters),
                "running": self._running,
                "queue_depth": max(0, queued),
                "max_workers": self.max_workers,
                "circuit": self.breaker.describe(),
                "tenants": {
                    tenant: dict(bucket)
                    for tenant, bucket in self._tenant_counters.items()
                },
            }

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        problem: "LPTypeProblem",
        deadline_s: Optional[float] = None,
        budget: Optional[ResourceBudget] = None,
        tenant: Optional[str] = None,
        on_progress: Optional[Any] = None,
        **overrides: Any,
    ) -> Ticket:
        """Enqueue one solve; returns immediately with a :class:`Ticket`.

        ``deadline_s`` bounds the request end to end from submission (queue
        wait included); ``budget`` bounds the execution itself.  ``tenant``
        attributes the ticket in :meth:`stats`; ``on_progress`` (a callable
        taking one event dict) receives the engine's per-iteration and the
        fabric's per-round events while the request runs — it is invoked in
        the worker thread, so it must be cheap and thread-safe.  Config
        ``overrides`` apply to this request only.
        """
        if deadline_s is not None and not deadline_s > 0:
            raise SessionError(f"deadline_s must be > 0 (got {deadline_s!r})")
        # Shed load *before* building config or touching the queue: an open
        # breaker means the session's infrastructure is broken and queueing
        # more work onto it only deepens the outage.
        self.breaker.allow()
        config = self._session._config_for(overrides)
        ticket = Ticket(next(self._ids), deadline_s, budget, tenant=tenant)
        tap = ProgressTap(on_progress) if on_progress is not None else None
        # The shutdown check, the counter, and the executor hand-off stay
        # under one lock so a concurrent shutdown() cannot slip between them
        # (which would raise the executor's RuntimeError and desync stats).
        with self._lock:
            if self._shutdown:
                raise SessionError("service is shut down")
            self._executor.submit(self._run_ticket, ticket, problem, config, tap)
            self._bump(tenant, "submitted")
        return ticket

    def submit_many(
        self, problems: Iterable["LPTypeProblem"], **kwargs: Any
    ) -> list[Ticket]:
        """Submit one ticket per problem (shared deadline/budget/overrides)."""
        return [self.submit(problem, **kwargs) for problem in problems]

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #

    def _effective_budget(self, ticket: Ticket) -> Optional[ResourceBudget]:
        """Fold the submission-anchored deadline into the request budget.

        The deadline is end-to-end (queue wait counts), the budget's
        ``wall_time_s`` bounds the execution only; at execution start the
        remaining deadline is ``deadline_s - wait`` and the effective
        execution wall limit is the smaller of the two.  A deadline that
        expired while queued yields a non-positive remainder, which the
        caller turns into an immediate :class:`BudgetExceededError`.
        """
        budget = ticket.budget
        if ticket.deadline_s is None:
            return budget
        wait = ticket.wait_s() or 0.0
        remaining = ticket.deadline_s - wait
        if remaining <= 0:
            raise BudgetExceededError(
                f"request deadline of {ticket.deadline_s:g}s expired after "
                f"{wait:.3f}s in the queue",
                reason="wall_time",
                elapsed_s=wait,
            )
        walls = [remaining]
        if budget is not None and budget.wall_time_s is not None:
            walls.append(budget.wall_time_s)
        return ResourceBudget(
            wall_time_s=min(walls),
            iterations=budget.iterations if budget else None,
            communication_bits=budget.communication_bits if budget else None,
        )

    def _finish(self, ticket: Ticket, outcome: str) -> None:
        ticket.finished_at = time.monotonic()
        with self._lock:
            self._running -= 1
            self._bump(ticket.tenant, outcome)

    def _run_ticket(
        self,
        ticket: Ticket,
        problem: "LPTypeProblem",
        config: SolverConfig,
        tap: Optional[ProgressTap] = None,
    ) -> None:
        if not ticket._future.set_running_or_notify_cancel():
            with self._lock:
                self._bump(ticket.tenant, "cancelled")
            return
        ticket.started_at = time.monotonic()
        with self._lock:
            self._running += 1
        try:
            budget = self._effective_budget(ticket)
            # Meter and tap live in *this* worker thread's context
            # (contextvars do not cross threads).
            with solve_scope(
                meter=start_meter(budget, started_at=ticket.started_at), tap=tap
            ):
                result = self._session.run_cold(problem, config)
            self.breaker.record_success()
        except BaseException as exc:  # noqa: BLE001 - forwarded to the ticket
            if isinstance(exc, CommunicationError):
                self.breaker.record_failure()
            # Outcome first, bookkeeping second: status/error key off the
            # future, so they must never observe "finished" before it is set.
            ticket._future.set_exception(exc)
            self._finish(ticket, "failed")
            return
        ticket._future.set_result(result)
        self._finish(ticket, "done")
