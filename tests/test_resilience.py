"""The resilience layer: fault plans, circuits, crash recovery.

Unit coverage for :mod:`repro.resilience` plus the integration seams it
plugs into — the journaled transport's crash recovery (restart, degrade),
the session's recovery accounting, a service ticket that rides out a
worker loss, the service's circuit breaker, and the wire forms of the
typed errors.

The distributed recovery contract under test everywhere: a solve that hits
an injected worker loss completes **bit-identical** to its fault-free
baseline — the transport restarts the worker or degrades to in-process
execution, and nothing above it retries.
"""

from __future__ import annotations

import pytest

from test_fabric_transports import (
    _build_problem,
    _model_overrides,
    _solve,
    assert_bit_identical,
)

from repro import TransportConfig
from repro.api.config import SolverConfig
from repro.api.service import SolverService
from repro.api.session import Session
from repro.core.context import solve_context, solve_scope
from repro.core.exceptions import (
    CircuitOpenError,
    InvalidConfigError,
    TransportFailure,
)
from repro.resilience import (
    FAULT_KINDS,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
)
from repro.server.wire import (
    error_body,
    error_to_exception,
    exception_to_error,
    sse_event,
)

SOLVE_KWARGS = dict(
    seed=11,
    sample_size=60,
    success_threshold=0.05,
    max_iterations=300,
    keep_trace=True,
)


# ---------------------------------------------------------------------- #
# Fault plans
# ---------------------------------------------------------------------- #


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(InvalidConfigError, match="kind"):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(InvalidConfigError, match="at"):
            FaultSpec(kind="worker_crash", at=0)
        with pytest.raises(InvalidConfigError, match="count"):
            FaultSpec(kind="worker_crash", count=0)
        with pytest.raises(InvalidConfigError, match="delay_s"):
            FaultSpec(kind="slow_node", delay_s=-1.0)

    def test_every_kind_maps_to_a_probe(self):
        for kind, probe in FAULT_KINDS.items():
            assert FaultSpec(kind=kind).probe == probe

    def test_seeded_plans_are_reproducible(self):
        a = FaultPlan.seeded(7, num_faults=5)
        b = FaultPlan.seeded(7, num_faults=5)
        assert a.describe()["specs"] == b.describe()["specs"]
        assert a.seed == 7
        # A different seed scripts a different scenario (overwhelmingly).
        c = FaultPlan.seeded(8, num_faults=5)
        assert a.describe()["specs"] != c.describe()["specs"]

    def test_take_counts_globally_for_unpinned_specs(self):
        plan = FaultPlan([FaultSpec(kind="message_drop", at=3)])
        hits = [plan.take("deliver") for _ in range(4)]
        assert [h is not None for h in hits] == [False, False, True, False]
        assert plan.fired == [("deliver", None, "message_drop")]

    def test_take_counts_per_node_for_pinned_specs(self):
        plan = FaultPlan([FaultSpec(kind="worker_crash", at=2, node=1)])
        # Worker 0's occurrences never match a node-1 pin.
        assert plan.take("dispatch", node=0) is None
        assert plan.take("dispatch", node=0) is None
        # Worker 1 fires on its *own* second occurrence.
        assert plan.take("dispatch", node=1) is None
        spec = plan.take("dispatch", node=1)
        assert spec is not None and spec.kind == "worker_crash"

    def test_count_window_fires_consecutively(self):
        plan = FaultPlan([FaultSpec(kind="message_delay", at=2, count=2)])
        hits = [plan.take("deliver") is not None for _ in range(4)]
        assert hits == [False, True, True, False]

    def test_fault_injection_contextvar(self):
        plan = FaultPlan([FaultSpec(kind="message_drop")])
        assert solve_context().fault_plan is None
        with solve_scope(fault_plan=plan) as installed:
            assert installed.fault_plan is plan
            assert solve_context().fault_plan is plan
        assert solve_context().fault_plan is None
        with solve_scope(fault_plan=None) as installed:
            assert installed.fault_plan is None


# ---------------------------------------------------------------------- #
# Circuit breaker
# ---------------------------------------------------------------------- #


class _FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            window_s=kwargs.pop("window_s", 60.0),
            cooldown_s=kwargs.pop("cooldown_s", 5.0),
            model="streaming",
            clock=clock,
            **kwargs,
        )
        return breaker, clock

    def test_closed_allows(self):
        breaker, _ = self._breaker()
        breaker.allow()
        assert breaker.state() == "closed"

    def test_trips_at_threshold_and_rejects(self):
        breaker, _ = self._breaker(failure_threshold=2)
        breaker.record_failure()
        assert breaker.state() == "closed"
        breaker.record_failure()
        assert breaker.state() == "open"
        with pytest.raises(CircuitOpenError) as exc_info:
            breaker.allow()
        assert exc_info.value.retry_after_s > 0
        assert exc_info.value.model == "streaming"
        assert breaker.describe()["rejected"] == 1

    def test_old_failures_age_out_of_the_window(self):
        breaker, clock = self._breaker(failure_threshold=2, window_s=10.0)
        breaker.record_failure()
        clock.now += 11.0  # the first failure leaves the window
        breaker.record_failure()
        assert breaker.state() == "closed"

    def test_half_open_probe_success_closes(self):
        breaker, clock = self._breaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        assert breaker.state() == "open"
        clock.now += 5.1
        breaker.allow()  # the single half-open probe
        assert breaker.state() == "half_open"
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # a second concurrent probe is rejected
        breaker.record_success()
        assert breaker.state() == "closed"
        breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self._breaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        clock.now += 5.1
        breaker.allow()
        breaker.record_failure()
        assert breaker.state() == "open"
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_describe_shape(self):
        breaker, _ = self._breaker()
        info = breaker.describe()
        for key in (
            "state",
            "recent_failures",
            "failure_threshold",
            "window_s",
            "cooldown_s",
            "rejected",
        ):
            assert key in info


# ---------------------------------------------------------------------- #
# Supervised transport: crash, restart, degrade
# ---------------------------------------------------------------------- #


def _supervised_session(model: str = "coordinator", **transport_overrides):
    cfg = {
        "kind": "process",
        "max_workers": 2,
        "reuse_pool": False,
        **transport_overrides,
    }
    return Session(
        model=model,
        transport=cfg,
        **SOLVE_KWARGS,
        **_model_overrides(model),
    )


class TestSupervisedTransport:
    def test_resolve_transport_builds_supervised_pool(self):
        session = _supervised_session()
        try:
            health = session.transport_health()
            assert health["kind"] == "process"
            assert health["supervised"] is True
            assert health["degraded"] is False
            assert [w["alive"] for w in health["workers"]] == [True, True]
        finally:
            session.close()

    def test_crash_restart_is_bit_identical(self):
        problem = _build_problem("lp")
        baseline = _solve(problem, "coordinator", None)
        session = _supervised_session()
        try:
            transport = session._transport
            plan = FaultPlan([FaultSpec(kind="worker_crash", at=1, node=1)])
            transport.attach_fault_plan(plan)
            result = session.solve(problem)
            assert_bit_identical(result, baseline)
            assert ("dispatch", 1, "worker_crash") in plan.fired
            assert transport.total_restarts >= 1
            assert not transport.degraded
            assert result.resources.transport_retries >= 1
            # The healed pool keeps serving: a second solve still matches.
            transport.attach_fault_plan(None)
            session.reset()
            assert_bit_identical(session.solve(problem), baseline)
            assert session.transport_health()["total_restarts"] >= 1
        finally:
            session.close()

    def test_exhausted_restarts_degrade_in_process(self):
        problem = _build_problem("meb")
        baseline = _solve(problem, "coordinator", None)
        session = _supervised_session(max_restarts=0)
        try:
            transport = session._transport
            plan = FaultPlan([FaultSpec(kind="worker_crash", at=1)])
            transport.attach_fault_plan(plan)
            result = session.solve(problem)
            assert_bit_identical(result, baseline)
            assert transport.degraded
            assert result.metadata.get("transport_degraded") is True
            assert session.transport_health()["degraded"] is True
        finally:
            session.close()

    def test_every_solve_after_degradation_is_flagged(self):
        problem = _build_problem("lp")
        session = _supervised_session(max_restarts=0)
        try:
            transport = session._transport
            transport._ensure_started()
            transport.kill_worker(0)
            flags = []
            for _ in range(3):
                session.reset()
                flags.append(session.solve(problem).metadata.get("transport_degraded"))
            # Only the first solve degrades the transport; the later ones
            # run in-process all the same and must say so.
            assert flags == [True, True, True]
            assert session.transport_health()["degraded"] is True
        finally:
            session.close()

    def test_ping_heals_dead_workers(self):
        session = _supervised_session()
        try:
            transport = session._transport
            transport._ensure_started()
            transport.kill_worker(0)
            assert transport.ping() == [True, True]
            assert transport.total_restarts >= 1
        finally:
            session.close()


class TestSolveManyWorkerDeath:
    def test_batch_survives_worker_death_bit_identically(self):
        problems = [_build_problem(f) for f in ("lp", "meb", "svm", "qp")]
        with Session(
            model="coordinator", **SOLVE_KWARGS, **_model_overrides("coordinator")
        ) as fault_free:
            baseline = list(fault_free.solve_many(problems, max_workers=2).results)
        session = _supervised_session()
        try:
            transport = session._transport
            plan = FaultPlan([FaultSpec(kind="worker_crash", at=2)])
            transport.attach_fault_plan(plan)
            batch = session.solve_many(problems, max_workers=2)
            for got, want in zip(batch.results, baseline):
                assert_bit_identical(got, want)
            assert any(k == "worker_crash" for _, _, k in plan.fired)
            assert transport.total_restarts >= 1
            # The retry shows up in the usage accounting of the solve that
            # absorbed the crash.
            assert (
                sum(r.resources.transport_retries for r in batch.results) >= 1
            )
        finally:
            session.close()


# ---------------------------------------------------------------------- #
# Service: worker loss, circuit breaker
# ---------------------------------------------------------------------- #


class TestServiceResilience:
    def _service(self, **kwargs):
        return SolverService(
            model="streaming",
            max_workers=1,
            **SOLVE_KWARGS,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "kind, max_restarts",
        [("process", 0), ("process", 1), ("tcp", 0), ("tcp", 1)],
    )
    def test_a_ticket_survives_worker_loss(self, kind, max_restarts):
        # The journaled transport is the one recovery layer: a worker lost
        # mid-ticket costs a restart or the degradation, never the ticket.
        problem = _build_problem("lp")
        baseline = _solve(problem, "coordinator", None)
        service = SolverService(
            model="coordinator",
            max_workers=1,
            transport={
                "kind": kind,
                "max_workers": 2,
                "reuse_pool": False,
                "max_restarts": max_restarts,
            },
            **SOLVE_KWARGS,
            **_model_overrides("coordinator"),
        )
        try:
            plan = FaultPlan([FaultSpec(kind="worker_crash", at=1)])
            service.session._transport.attach_fault_plan(plan)
            result = service.submit(problem).result(timeout=120)
            assert_bit_identical(result, baseline)
            assert ("dispatch", 0, "worker_crash") in plan.fired
            if max_restarts == 0:
                assert result.metadata.get("transport_degraded") is True
            else:
                assert "transport_degraded" not in result.metadata
                assert result.resources.transport_retries == 1
            stats = service.stats()
            assert stats["failed"] == 0
            assert stats["circuit"]["state"] == "closed"
            assert stats["circuit"]["recent_failures"] == 0
        finally:
            service.shutdown()

    def test_terminal_failure_propagates_and_counts(self):
        problem = _build_problem("lp")
        service = self._service()

        def doomed(problem, config=None, budget=None):
            raise TransportFailure("pool is gone", retryable=False)

        service.session.run_cold = doomed
        try:
            ticket = service.submit(problem)
            with pytest.raises(TransportFailure):
                ticket.result(timeout=30)
            assert ticket.status == "failed"
            assert service.stats()["circuit"]["recent_failures"] >= 1
        finally:
            service.shutdown()

    def test_open_circuit_rejects_submissions(self):
        problem = _build_problem("lp")
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=60.0, model="streaming"
        )
        service = self._service(circuit_breaker=breaker)
        try:
            breaker.record_failure()
            with pytest.raises(CircuitOpenError) as exc_info:
                service.submit(problem)
            assert exc_info.value.retry_after_s > 0
        finally:
            service.shutdown()


# ---------------------------------------------------------------------- #
# Wire forms
# ---------------------------------------------------------------------- #


class TestResilienceWire:
    def test_error_body_advertises_retryability(self):
        body = error_body("transport_failure", "boom", retryable=True)
        assert body["error"]["retryable"] is True
        assert "retry_after" not in body["error"]
        body = error_body("circuit_open", "cooling", retry_after=2.5)
        assert body["error"]["retry_after"] == 2.5
        # Every body carries the flag, defaulting to terminal.
        assert error_body("internal", "x")["error"]["retryable"] is False

    def test_transport_failure_round_trip(self):
        exc = TransportFailure("worker 1 died", retryable=True, worker=1, attempts=2)
        body = exception_to_error(exc)
        assert body["error"]["type"] == "transport_failure"
        assert body["error"]["retryable"] is True
        back = error_to_exception(body)
        assert isinstance(back, TransportFailure)
        assert back.retryable is True
        assert back.worker == 1
        assert back.attempts == 2

    def test_circuit_open_round_trip(self):
        exc = CircuitOpenError("cooling down", retry_after_s=3.0, model="mpc")
        body = exception_to_error(exc)
        assert body["error"]["type"] == "circuit_open"
        assert body["error"]["retryable"] is True
        assert body["error"]["retry_after"] == 3.0
        back = error_to_exception(body)
        assert isinstance(back, CircuitOpenError)
        assert back.retry_after_s == 3.0
        assert back.model == "mpc"

    def test_sse_event_ids(self):
        frame = sse_event("round", {"i": 1}, event_id=7).decode()
        assert frame.startswith("id: 7\n")
        assert "event: round\n" in frame
        # Frames without an id stay exactly as before.
        assert sse_event("round", {"i": 1}).decode().startswith("event: round\n")


class TestTransportConfigResilience:
    def test_supervised_fields_validate(self):
        with pytest.raises(InvalidConfigError):
            TransportConfig(kind="process", max_restarts=-1)

    def test_mapping_coercion(self):
        from repro.api.config import StreamingConfig

        cfg = StreamingConfig(transport={"kind": "process", "max_workers": 2})
        assert isinstance(cfg.transport, TransportConfig)
        with pytest.raises(InvalidConfigError, match="TransportConfig"):
            StreamingConfig(transport={"kind": "process", "turbo": True})
