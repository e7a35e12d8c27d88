"""The async service front end: tickets, concurrency, deadlines, budgets."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import repro
from repro import (
    BudgetExceededError,
    ResourceBudget,
    SessionError,
    SolveResult,
    SolverService,
    solve,
)
from repro.core.exceptions import InvalidConfigError
from repro.workloads import random_polytope_lp

FAST = dict(sample_size=300, success_threshold=0.02, max_iterations=500, seed=0)


@pytest.fixture(scope="module")
def problems():
    return [random_polytope_lp(800, 2, seed=50 + i).problem for i in range(4)]


def test_submit_returns_tickets_and_matches_direct_solve(problems):
    with SolverService(model="streaming", max_workers=2, r=2, **FAST) as svc:
        tickets = svc.submit_many(problems)
        results = [ticket.result(timeout=60) for ticket in tickets]
        assert all(ticket.status == "done" for ticket in tickets)
        assert all(ticket.error is None for ticket in tickets)
        stats = svc.stats()
    assert stats["submitted"] == len(problems)
    assert stats["done"] == len(problems)
    assert stats["failed"] == 0
    for problem, result in zip(problems, results):
        direct = solve(problem, model="streaming", r=2, **FAST)
        assert result.basis_indices == direct.basis_indices
        assert result.value == direct.value


def test_service_responses_serialize_for_the_wire(problems):
    with SolverService(model="coordinator", num_sites=3, **FAST) as svc:
        result = svc.submit(problems[0]).result(timeout=60)
    payload = json.loads(json.dumps(result.to_dict()))
    restored = SolveResult.from_dict(payload)
    assert restored.basis_indices == result.basis_indices
    assert restored.resources.total_communication_bits > 0


def test_iteration_budget_fails_ticket_with_partial_usage(problems):
    with SolverService(model="sequential", **FAST) as svc:
        ticket = svc.submit(problems[0], budget=ResourceBudget(iterations=1))
        with pytest.raises(BudgetExceededError) as excinfo:
            ticket.result(timeout=60)
        assert ticket.status == "failed"
        assert isinstance(ticket.error, BudgetExceededError)
    assert excinfo.value.reason == "iterations"
    assert excinfo.value.iterations == 1


def test_expired_deadline_fails_fast_including_queue_wait(problems):
    with SolverService(model="sequential", **FAST) as svc:
        ticket = svc.submit(problems[0], deadline_s=1e-9)
        with pytest.raises(BudgetExceededError, match="deadline"):
            ticket.result(timeout=60)
    assert ticket.status == "failed"


def test_nan_wall_time_budget_is_rejected():
    # NaN passes an ``x <= 0`` check and then never compares greater than
    # the elapsed time, so it would switch the limit off.
    with pytest.raises(InvalidConfigError, match="wall_time_s"):
        ResourceBudget(wall_time_s=float("nan"))


def test_nan_deadline_is_rejected_at_submit(problems):
    with SolverService(model="sequential", **FAST) as svc:
        with pytest.raises(SessionError, match="deadline_s"):
            svc.submit(problems[0], deadline_s=float("nan"))


def test_communication_budget_fails_coordinator_request(problems):
    with SolverService(model="coordinator", num_sites=3, **FAST) as svc:
        ticket = svc.submit(
            problems[0], budget=ResourceBudget(communication_bits=64)
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            ticket.result(timeout=60)
    assert excinfo.value.reason == "communication_bits"
    assert excinfo.value.usage.total_communication_bits > 64


def test_per_request_overrides_do_not_leak(problems):
    with SolverService(model="streaming", r=2, **FAST) as svc:
        custom = svc.submit(problems[0], r=3).result(timeout=60)
        default = svc.submit(problems[0]).result(timeout=60)
    assert custom.metadata["r"] == 3
    assert default.metadata["r"] == 2


def test_shutdown_rejects_new_submissions(problems):
    svc = SolverService(model="sequential", **FAST)
    svc.shutdown()
    with pytest.raises(SessionError, match="shut down"):
        svc.submit(problems[0])
    svc.shutdown()  # idempotent


def test_external_session_is_not_closed_by_the_service(problems):
    with repro.session(model="streaming", **FAST) as sess:
        with SolverService(session=sess) as svc:
            svc.submit(problems[0]).result(timeout=60)
        # The service shut down, but the session it borrowed stays usable.
        result = sess.solve(problems[1])
    assert result.basis_indices


def test_concurrent_submissions_from_many_threads(problems):
    errors: list[BaseException] = []
    with SolverService(model="streaming", max_workers=2, r=2, **FAST) as svc:
        tickets: list = []
        lock = threading.Lock()

        def submit_batch():
            try:
                batch = svc.submit_many(problems[:2])
                with lock:
                    tickets.extend(batch)
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=submit_batch) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        values = [t.result(timeout=120).value for t in tickets]
    # Identical requests must produce identical results regardless of the
    # worker thread that served them.
    reference = solve(problems[0], model="streaming", r=2, **FAST).value
    assert values[0] == reference
    assert len(values) == 6


def test_stats_exposes_queue_depth_running_and_tenants(problems):
    with SolverService(model="streaming", max_workers=2, r=2, **FAST) as svc:
        stats = svc.stats()
        assert stats["queue_depth"] == 0
        assert stats["running"] == 0
        assert stats["max_workers"] == 2
        assert stats["tenants"] == {}

        tickets = [
            svc.submit(problem, tenant="acme") for problem in problems[:2]
        ] + [svc.submit(problems[2], tenant="tiny"), svc.submit(problems[3])]
        depth = svc.stats()
        # Everything submitted is queued, running, or already finished.
        assert (
            depth["queue_depth"] + depth["running"] + depth["done"]
            == len(tickets)
        )
        for ticket in tickets:
            ticket.result(timeout=120)
        final = svc.stats()
    assert final["queue_depth"] == 0
    assert final["running"] == 0
    assert final["done"] == len(tickets)
    # Per-tenant breakdown: named tenants plus the anonymous bucket.
    assert final["tenants"]["acme"]["submitted"] == 2
    assert final["tenants"]["acme"]["done"] == 2
    assert final["tenants"]["acme"]["failed"] == 0
    assert final["tenants"]["tiny"] == {
        "submitted": 1,
        "done": 1,
        "failed": 0,
        "cancelled": 0,
    }
    # Tickets submitted without a tenant count only in the totals.
    assert set(final["tenants"]) == {"acme", "tiny"}


def test_progress_callback_sees_iteration_and_round_events(problems):
    events: list[dict] = []
    with SolverService(model="streaming", max_workers=1, r=2, **FAST) as svc:
        result = svc.submit(problems[0], on_progress=events.append).result(
            timeout=120
        )
    iteration_events = [e for e in events if e["event"] == "iteration"]
    round_events = [e for e in events if e["event"] == "round"]
    assert len(iteration_events) == result.iterations
    assert len(round_events) >= result.iterations
    assert iteration_events[-1]["successful"] is True
