"""The HTTP/SSE front end: sockets, tenancy, SSE, and wire fidelity.

Every test here exercises a real ``ThreadingHTTPServer`` socket through the
stdlib :class:`~repro.server.ServiceClient` — nothing is mocked below the
HTTP layer — so the suite doubles as the protocol conformance check for
``docs/service.md``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro
from repro import BudgetExceededError, ResourceBudget, SolveResult, solve
from repro.api.service import Ticket
from repro.core.result import ResourceUsage
from repro.problems.meb import MinimumEnclosingBall
from repro.problems.qp import ConvexQuadraticProgram
from repro.server import (
    AuthenticationError,
    QuotaExceededError,
    ReproServer,
    RequestValidationError,
    ServiceClient,
    ServiceError,
    Tenant,
    TenantQuota,
    TenantRegistry,
    decode_problem,
    encode_problem,
)
from repro.server.app import _TicketRecord
from repro.server.tenancy import admit
from repro.core.accounting import TenantUsage
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

FAST = dict(sample_size=300, success_threshold=0.02, max_iterations=500, seed=0)


def _qp_instance(n: int, d: int, seed: int) -> ConvexQuadraticProgram:
    rng = np.random.default_rng(seed)
    q_matrix = np.diag(np.linspace(1.0, 2.0, d))
    normals = rng.normal(size=(n, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchor = rng.uniform(-1.0, 1.0, size=d)
    h_vector = normals @ anchor - rng.uniform(0.1, 1.0, size=n)
    return ConvexQuadraticProgram(q_matrix, rng.normal(size=d), normals, h_vector)


def _instance(family: str):
    if family == "lp":
        return random_polytope_lp(800, 2, seed=51).problem
    if family == "meb":
        return MinimumEnclosingBall(uniform_ball_points(600, 3, seed=52))
    if family == "svm":
        return svm_problem(make_separable_classification(600, 2, seed=53))
    return _qp_instance(600, 3, seed=54)


@pytest.fixture(scope="module")
def server():
    with ReproServer(port=0, model="streaming", max_workers=2, r=2, **FAST) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


# ---------------------------------------------------------------------- #
# E2E: submit over a socket, bit-identical to in-process solve
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("family", ["lp", "meb", "svm", "qp"])
def test_remote_solve_bit_identical_to_in_process(client, family):
    problem = _instance(family)
    remote = client.solve(problem, timeout=120)
    direct = solve(problem, model="streaming", r=2, **FAST)
    assert remote.basis_indices == direct.basis_indices
    assert remote.value == direct.value
    # Bit-identity of the witness, uniformly across witness types (arrays
    # for lp/svm/qp, a Ball object for meb): compare the full wire forms.
    assert json.dumps(
        SolveResult.to_dict(remote)["witness"], sort_keys=True
    ) == json.dumps(SolveResult.to_dict(direct)["witness"], sort_keys=True)
    assert remote.iterations == direct.iterations
    assert (
        remote.resources.total_communication_bits
        == direct.resources.total_communication_bits
    )


def test_per_request_model_and_config_overrides(client):
    problem = _instance("lp")
    remote = client.solve(
        problem, model="coordinator", config={"num_sites": 3}, timeout=120
    )
    direct = solve(problem, model="coordinator", num_sites=3, **FAST)
    assert remote.value == direct.value
    assert remote.basis_indices == direct.basis_indices
    assert remote.resources.total_communication_bits > 0


def test_problem_wire_codec_round_trips():
    for family in ("lp", "meb", "svm", "qp"):
        problem = _instance(family)
        payload = json.loads(json.dumps(encode_problem(problem)))
        restored = decode_problem(payload)
        assert type(restored) is type(problem)


# ---------------------------------------------------------------------- #
# SSE: at least one event per round, terminal event, replay semantics
# ---------------------------------------------------------------------- #


def test_sse_streams_one_event_per_iteration_and_terminates(client):
    problem = _instance("lp")
    ticket = client.submit(problem)
    events = list(ticket.events(timeout=60))
    result = ticket.result(timeout=60)

    names = [event["event"] for event in events]
    assert names[0] == "queued"
    assert names[-1] == "done"
    assert names.count("iteration") == result.iterations
    rounds = [event for event in events if event["event"] == "round"]
    assert len(rounds) >= result.iterations  # >= one ledger round per pass
    for event in events:
        if event["event"] == "iteration":
            data = event["data"]
            assert set(data) >= {
                "iteration",
                "sample_size",
                "num_violators",
                "violator_weight_fraction",
                "successful",
            }


def test_sse_replays_for_late_subscribers(client):
    ticket = client.submit(_instance("lp"))
    ticket.result(timeout=60)  # finish first, then attach the stream
    events = list(ticket.events(timeout=10))
    names = [event["event"] for event in events]
    assert names[0] == "queued"
    assert names[-1] == "done"
    assert "iteration" in names


def test_coordinator_sse_carries_fabric_rounds(client):
    ticket = client.submit(
        _instance("lp"), model="coordinator", config={"num_sites": 3}
    )
    result = ticket.result(timeout=120)
    events = list(ticket.events(timeout=10))
    rounds = [event for event in events if event["event"] == "round"]
    assert len(rounds) == result.resources.rounds
    assert all(event["data"]["bits"] >= 0 for event in rounds)
    assert sum(event["data"]["bits"] for event in rounds) == (
        result.resources.total_communication_bits
    )


# ---------------------------------------------------------------------- #
# Typed error bodies: 400 validation, 404 tickets
# ---------------------------------------------------------------------- #


def test_malformed_problem_answers_400_with_field(client):
    with pytest.raises(RequestValidationError) as excinfo:
        client.submit({"family": "lp", "c": [1.0, 0.0]})
    assert excinfo.value.field == "problem.a"


def test_unknown_model_answers_400(client):
    with pytest.raises(RequestValidationError) as excinfo:
        client.submit(_instance("lp"), model="no-such-model")
    assert excinfo.value.field == "model"


def test_unknown_config_field_answers_400(client):
    with pytest.raises(RequestValidationError, match="definitely_not_a_field"):
        client.submit(_instance("lp"), config={"definitely_not_a_field": 1})


def test_bad_budget_answers_400(client):
    with pytest.raises(RequestValidationError):
        client.submit(_instance("lp"), budget={"iterations": 0})


def test_unknown_ticket_answers_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.ticket("t999999")
    assert excinfo.value.status == 404


# ---------------------------------------------------------------------- #
# Tenancy: 401s, 429s, isolation, usage metering
# ---------------------------------------------------------------------- #


def test_authentication_and_cumulative_quota_429(tmp_path):
    """The ISSUE acceptance path: tenant B exhausts its quota and gets a
    429 with a structured body while tenant A's tickets keep completing."""
    usage_log = tmp_path / "usage.jsonl"
    tenants = {
        "key-a": Tenant("acme"),
        "key-b": Tenant("tiny", TenantQuota(communication_bits=64)),
    }
    problem = _instance("lp")
    with ReproServer(
        port=0,
        model="streaming",
        max_workers=2,
        r=2,
        tenants=tenants,
        allow_anonymous=False,
        usage_log=usage_log,
        **FAST,
    ) as srv:
        alice = ServiceClient(srv.url, api_key="key-a")
        bob = ServiceClient(srv.url, api_key="key-b")

        # No key / wrong key -> 401 with a structured body.
        with pytest.raises(AuthenticationError):
            ServiceClient(srv.url).usage()
        with pytest.raises(AuthenticationError):
            ServiceClient(srv.url, api_key="wrong").usage()

        # Bob's first coordinator solve spends >64 bits; the ledger now
        # exceeds the cumulative quota, so the next submit is refused.
        first = bob.solve(
            problem, model="coordinator", config={"num_sites": 3}, timeout=120
        )
        assert first.resources.total_communication_bits > 64
        with pytest.raises(QuotaExceededError) as excinfo:
            bob.submit(problem)
        assert excinfo.value.reason == "communication_bits"
        assert excinfo.value.limit == 64
        assert excinfo.value.used == first.resources.total_communication_bits

        # Alice is unaffected and still gets bit-identical answers.
        remote = alice.solve(problem, timeout=120)
        direct = solve(problem, model="streaming", r=2, **FAST)
        assert remote.value == direct.value

        # Per-tenant usage endpoint reflects the ledger.
        bob_usage = bob.usage()
        assert bob_usage["tenant"] == "tiny"
        assert bob_usage["usage"]["tickets"] == 1
        assert (
            bob_usage["usage"]["communication_bits"]
            == first.resources.total_communication_bits
        )
        alice_usage = alice.usage()
        assert alice_usage["tenant"] == "acme"
        assert alice_usage["usage"]["done"] == 1

        # Ticket ids do not leak across tenants: Bob cannot see Alice's.
        alice_ticket = alice.submit(problem)
        alice_ticket.result(timeout=120)
        with pytest.raises(ServiceError) as leak:
            bob.ticket(alice_ticket.id)
        assert leak.value.status == 404

    # The JSONL ledger has one line per finished ticket, tenant-attributed.
    lines = [json.loads(line) for line in usage_log.read_text().splitlines()]
    assert len(lines) == 3
    assert {line["tenant"] for line in lines} == {"acme", "tiny"}
    assert all(line["outcome"] == "done" for line in lines)
    assert all(line["wall_s"] >= 0 for line in lines)


def test_concurrent_quota_admission():
    tenant = Tenant("burst", TenantQuota(max_concurrent=2))
    admit(tenant, 0, TenantUsage())
    admit(tenant, 1, TenantUsage())
    with pytest.raises(QuotaExceededError) as excinfo:
        admit(tenant, 2, TenantUsage())
    assert excinfo.value.reason == "concurrent"
    assert excinfo.value.limit == 2
    assert excinfo.value.used == 2


def test_registry_from_config_builds_quotas():
    registry = TenantRegistry.from_config(
        {"secret": {"tenant": "acme", "max_concurrent": 4, "iterations": 100}},
        allow_anonymous=False,
    )
    tenant = registry.authenticate("secret")
    assert tenant.name == "acme"
    assert tenant.quota.max_concurrent == 4
    assert tenant.quota.iterations == 100
    with pytest.raises(AuthenticationError):
        registry.authenticate(None)


# ---------------------------------------------------------------------- #
# Wire fidelity: budget aborts, large witnesses, non-finite values
# ---------------------------------------------------------------------- #


def test_budget_abort_crosses_the_wire_with_partial_usage():
    cfg = dict(sample_size=200, success_threshold=0.005, max_iterations=500, seed=3)
    problem = random_polytope_lp(3000, 3, seed=7).problem
    with ReproServer(port=0, model="streaming", max_workers=1, r=2, **cfg) as srv:
        client = ServiceClient(srv.url)
        ticket = client.submit(problem, budget=ResourceBudget(iterations=1))
        with pytest.raises(BudgetExceededError) as excinfo:
            ticket.result(timeout=120)
        exc = excinfo.value
        assert exc.reason == "iterations"
        assert exc.iterations == 1
        assert isinstance(exc.usage, ResourceUsage)
        assert exc.elapsed_s > 0
        assert (
            exc.usage.total_communication_bits == exc.communication_bits
        )
        # The poll body carries the same structured error.
        payload = ticket.status()
        assert payload["status"] == "failed"
        assert payload["error"]["type"] == "budget_exhausted"
        assert payload["error"]["iterations"] == exc.iterations
        wire_usage = payload["error"]["usage"]
        assert wire_usage == {
            key: value
            for key, value in dataclasses.asdict(exc.usage).items()
            if key in wire_usage
        }
        assert "total_communication_bits" in wire_usage
        # ... and the SSE stream ends with a 'failed' terminal event.
        events = list(ticket.events(timeout=10))
        assert events[-1]["event"] == "failed"
        assert events[-1]["data"]["error"]["type"] == "budget_exhausted"


def _inject_result(server: ReproServer, result: SolveResult) -> str:
    """Install a finished synthetic ticket so HTTP serves its payload."""
    ticket = Ticket(0, None, None, tenant="public")
    ticket._future.set_result(result)
    with server._lock:
        rid = f"t{server._next_id}"
        server._next_id += 1
        record = _TicketRecord(rid, "public", "streaming")
        record.ticket = ticket
        server._tickets[rid] = record
    return rid


def test_large_witness_and_nonfinite_margins_survive_http(server, client):
    base = solve(_instance("lp"), model="streaming", r=2, **FAST)
    big = np.arange(200_000, dtype=np.float64) / 3.0
    synthetic = dataclasses.replace(
        base,
        witness=big,
        metadata={
            **base.metadata,
            "margins": [float("inf"), float("-inf"), float("nan"), 0.5],
        },
    )
    rid = _inject_result(server, synthetic)
    payload = client.ticket(rid)
    assert payload["status"] == "done"
    restored = SolveResult.from_dict(payload["result"])
    np.testing.assert_array_equal(np.asarray(restored.witness), big)
    assert np.asarray(restored.witness).dtype == np.float64
    margins = restored.metadata["margins"]
    assert margins[0] == float("inf")
    assert margins[1] == float("-inf")
    assert np.isnan(margins[2])
    assert margins[3] == 0.5


# ---------------------------------------------------------------------- #
# Introspection endpoints
# ---------------------------------------------------------------------- #


def test_models_endpoint_describes_registry(client):
    body = client.models()
    assert body["default"] == "streaming"
    assert set(body["models"]) >= {"sequential", "streaming", "coordinator", "mpc"}
    for info in body["models"].values():
        assert "description" in info and "transports" in info


def test_healthz_reports_service_stats(client, server):
    client.solve(_instance("lp"), timeout=120)
    body = client.healthz()
    assert body["status"] == "ok"
    streaming = body["services"]["streaming"]
    assert streaming["done"] >= 1
    assert "queue_depth" in streaming and "running" in streaming
    assert "public" in streaming["tenants"]


# ---------------------------------------------------------------------- #
# Resilient service path: deep health, structured 503s, SSE resume
# ---------------------------------------------------------------------- #


def test_healthz_reports_liveness_and_readiness(client, server):
    client.solve(_instance("lp"), timeout=120)
    body = client.healthz()
    assert body["liveness"] == "ok"
    assert body["readiness"]["ready"] is True
    streaming = body["readiness"]["models"]["streaming"]
    assert streaming["state"] == "ready"
    assert streaming["circuit"]["state"] == "closed"
    assert streaming["transport"]["kind"] in ("inprocess", "process")


def test_open_circuit_answers_structured_503(server):
    from repro.core.exceptions import CircuitOpenError

    service = server._service_for("streaming")
    breaker = service.breaker
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    try:
        # POSTs are never retried by the client, so the 503 surfaces raw.
        fresh = ServiceClient(server.url)
        with pytest.raises(CircuitOpenError) as exc_info:
            fresh.submit(_instance("lp"))
        assert exc_info.value.retry_after_s > 0
        assert exc_info.value.model == "streaming"

        # The raw response carries the Retry-After header and a retryable
        # structured body.
        import http.client as http_client
        import json as json_mod

        host, port = server.address
        conn = http_client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/solve",
                body=json_mod.dumps({"problem": encode_problem(_instance("lp"))}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 503
            assert int(response.getheader("Retry-After")) >= 1
            error = json_mod.loads(response.read())["error"]
            assert error["type"] == "circuit_open"
            assert error["retryable"] is True
            assert error["retry_after"] > 0
        finally:
            conn.close()

        # An open circuit flips readiness without killing liveness.
        health = ServiceClient(server.url).healthz()
        assert health["liveness"] == "ok"
        assert health["status"] == "degraded"
        assert (
            health["readiness"]["models"]["streaming"]["state"] == "circuit_open"
        )
    finally:
        breaker.record_success()  # close the circuit for the other tests
    assert ServiceClient(server.url).healthz()["status"] == "ok"


def test_sse_frames_carry_ids_and_resume_via_last_event_id(server, client):
    import http.client as http_client

    ticket = client.submit(_instance("lp"))
    ticket.result(timeout=120)

    def _frames(headers):
        host, port = server.address
        conn = http_client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "GET", f"/v1/tickets/{ticket.id}/events?timeout=10", headers=headers
            )
            response = conn.getresponse()
            assert response.status == 200
            frames = []
            current = {}
            for raw_line in response:
                line = raw_line.decode().rstrip("\r\n")
                if line.startswith("id:"):
                    current["id"] = int(line[3:].strip())
                elif line.startswith("event:"):
                    current["event"] = line[6:].strip()
                elif line == "" and current:
                    frames.append(current)
                    if current["event"] in ("done", "failed", "cancelled"):
                        break
                    current = {}
            return frames
        finally:
            conn.close()

    full = _frames({})
    assert [f["id"] for f in full] == list(range(len(full)))
    assert full[-1]["event"] == "done"

    resumed = _frames({"Last-Event-ID": "1"})
    assert resumed[0]["id"] == 2
    assert [f["event"] for f in resumed] == [f["event"] for f in full[2:]]


def test_client_sse_reconnects_without_duplicates(server, client):
    ticket = client.submit(_instance("lp"))
    ticket.result(timeout=120)
    clean = list(client.events(ticket.id, timeout=30))

    flaky_client = ServiceClient(server.url, retries=2, backoff_s=0.0)
    real = flaky_client._stream_once
    state = {"connections": 0}

    def flaky(ticket_id, deadline, last_id):
        state["connections"] += 1
        stream = real(ticket_id, deadline, last_id)
        if state["connections"] == 1:
            # Two frames, then the connection "dies" mid-stream.
            yield next(stream)
            yield next(stream)
            raise OSError("connection reset mid-stream")
        yield from stream

    flaky_client._stream_once = flaky
    events = list(flaky_client.events(ticket.id, timeout=30))
    assert state["connections"] == 2
    # The resumed stream replays from Last-Event-ID: no gaps, no repeats.
    assert [e["event"] for e in events] == [e["event"] for e in clean]
