"""Cross-transport determinism: process workers are bit-identical to in-process.

Every distributed model (streaming, coordinator, MPC) crossed with every
problem family (LP, MEB, SVM, QP) is solved twice — on the default
:class:`~repro.fabric.transport.InProcessTransport` and on the
:class:`~repro.fabric.transport.ProcessPoolTransport` (real worker
processes) — and the two runs must agree *bit for bit*: same value, same
witness bytes, same iteration story, and the same communication ledger.

The process runs share one module-level worker pool (``reuse_pool=True``,
the default), which also exercises the session namespacing that
``solve_many(max_workers > 1)`` relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TransportConfig, solve, solve_many
from repro.api.config import SolverConfig
from repro.core.context import solve_scope
from repro.core.exceptions import InvalidConfigError
from repro.fabric.transport import InProcessTransport, ProcessPoolTransport
from repro.problems import MinimumEnclosingBall
from repro.resilience import FaultPlan, FaultSpec
from repro.workloads import (
    make_separable_classification,
    random_feasible_lp,
    svm_problem,
    uniform_ball_points,
)

MODELS = ("streaming", "coordinator", "mpc")
PROBLEMS = ("lp", "meb", "svm", "qp")

#: Small instances keep the grid fast; the iterative path is still exercised
#: because the explicit sample size stays below n.
N = 400

PROCESS = TransportConfig(kind="process", max_workers=2)


def _build_problem(family: str):
    if family == "lp":
        return random_feasible_lp(N, 2, seed=3).problem
    if family == "meb":
        return MinimumEnclosingBall(uniform_ball_points(N, 2, seed=4))
    if family == "svm":
        return svm_problem(make_separable_classification(N, 2, seed=5, margin=0.3))
    if family == "qp":
        from repro.problems.qp import ConvexQuadraticProgram

        rng = np.random.default_rng(6)
        normals = rng.normal(size=(N, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        h = normals @ rng.uniform(-0.5, 0.5, size=2) - rng.uniform(0.1, 1.0, size=N)
        return ConvexQuadraticProgram(
            np.diag([1.0, 2.0]), rng.normal(size=2), normals, h
        )
    raise ValueError(family)


def _model_overrides(model: str) -> dict:
    if model == "coordinator":
        return {"num_sites": 3}
    if model == "mpc":
        return {"delta": 0.5, "num_machines": 4}
    return {}


def _solve(problem, model, transport):
    kwargs = _model_overrides(model)
    if transport is not None:
        kwargs["transport"] = transport
    return solve(
        problem,
        model=model,
        seed=11,
        sample_size=60,
        success_threshold=0.05,
        max_iterations=300,
        keep_trace=True,
        **kwargs,
    )


def _witness_bytes(witness):
    try:
        return np.asarray(witness, dtype=float).tobytes()
    except (TypeError, ValueError):
        import pickle

        return pickle.dumps(witness)


def assert_bit_identical(a, b):
    assert a.value == b.value
    assert _witness_bytes(a.witness) == _witness_bytes(b.witness)
    assert a.basis_indices == b.basis_indices
    assert a.iterations == b.iterations
    assert a.successful_iterations == b.successful_iterations
    assert [
        (t.sample_size, t.num_violators, t.violator_weight_fraction, t.successful)
        for t in a.trace
    ] == [
        (t.sample_size, t.num_violators, t.violator_weight_fraction, t.successful)
        for t in b.trace
    ]
    # Identical ledgers: round for round, bit for bit.
    assert a.resources.per_round == b.resources.per_round
    assert a.resources.rounds == b.resources.rounds
    assert a.resources.passes == b.resources.passes
    assert a.resources.total_communication_bits == b.resources.total_communication_bits
    assert a.resources.max_message_bits == b.resources.max_message_bits
    assert a.resources.max_machine_load_bits == b.resources.max_machine_load_bits
    assert a.resources.oracle_calls == b.resources.oracle_calls


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family", PROBLEMS)
def test_process_transport_is_bit_identical(model, family):
    problem = _build_problem(family)
    inproc = _solve(problem, model, None)
    process = _solve(problem, model, PROCESS)
    assert inproc.metadata["transport"] == "inprocess"
    assert process.metadata["transport"] == "process"
    assert_bit_identical(inproc, process)


@pytest.mark.parametrize("supervised", (False, True), ids=("pool", "supervised"))
@pytest.mark.parametrize("family", PROBLEMS)
def test_shared_memory_axis_is_bit_identical(family, supervised):
    """Zero-copy shipping must be invisible to results: shm on == shm off ==
    in-process, on a healthy pool and on a pool whose supervision replaces a
    worker crashed at the first dispatch."""
    problem = _build_problem(family)
    inproc = _solve(problem, "coordinator", None)

    def shipped(shared_memory):
        plan = FaultPlan([FaultSpec(kind="worker_crash", at=1)]) if supervised else None
        with solve_scope(fault_plan=plan):
            result = _solve(
                problem,
                "coordinator",
                TransportConfig(
                    kind="process", max_workers=2, shared_memory=shared_memory
                ),
            )
        if supervised:
            assert ("dispatch", 0, "worker_crash") in plan.fired, plan.describe()
        return result

    shm_on = shipped(True)
    shm_off = shipped(False)
    assert_bit_identical(inproc, shm_on)
    assert_bit_identical(inproc, shm_off)


@pytest.mark.parametrize("model", ("coordinator", "mpc"))
def test_solve_many_parallel_batches_are_transport_independent(model):
    problems = [random_feasible_lp(200, 2, seed=s).problem for s in range(4)]
    kwargs = dict(
        model=model,
        root_seed=9,
        sample_size=50,
        success_threshold=0.05,
        max_iterations=300,
        **_model_overrides(model),
    )
    serial = solve_many(problems, max_workers=1, **kwargs)
    threaded_process = solve_many(
        problems, max_workers=3, transport=PROCESS, **kwargs
    )
    for a, b in zip(serial, threaded_process):
        assert_bit_identical(a, b)


class TestTransportConfigValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfigError, match="kind"):
            TransportConfig(kind="carrier-pigeon")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(InvalidConfigError, match="max_workers"):
            TransportConfig(kind="process", max_workers=0)

    def test_transport_is_a_config_key(self):
        config = SolverConfig(seed=0)
        assert not hasattr(config, "transport")  # base config stays lean
        from repro import describe_model

        for model in MODELS:
            assert "transport" in describe_model(model)["config_keys"]
            assert describe_model(model)["transports"] == [
                "inprocess",
                "process",
                "tcp",
            ]
        assert describe_model("sequential")["transports"] == ["inprocess"]


class TestTransportPrimitives:
    def test_inprocess_state_isolation_per_session(self):
        transport = InProcessTransport()
        transport.init_node("a", 0, {"v": 1})
        transport.init_node("b", 0, {"v": 2})

        def bump(state):
            state["v"] += 10
            return state, state["v"]

        assert transport.run_node("a", 0, bump) == 11
        assert transport.run_node("b", 0, bump) == 12
        transport.release("a")
        with pytest.raises(KeyError):
            transport.run_node("a", 0, bump)

    def test_process_pool_round_trips_state(self):
        transport = ProcessPoolTransport(max_workers=2)
        try:
            for node in range(3):
                transport.init_node("s", node, {"count": node})
            results = transport.run_nodes(
                "s", [0, 1, 2], _increment_task, [(5,), (5,), (5,)]
            )
            assert results == [5, 6, 7]
            # State persisted worker-side between calls.
            results = transport.run_nodes(
                "s", [0, 1, 2], _increment_task, [(1,), (1,), (1,)]
            )
            assert results == [6, 7, 8]
        finally:
            transport.close()

    def test_worker_errors_surface(self):
        from repro.core.exceptions import CommunicationError

        transport = ProcessPoolTransport(max_workers=1)
        try:
            transport.init_node("s", 0, {})
            with pytest.raises(CommunicationError, match="boom"):
                transport.run_node("s", 0, _failing_task)
        finally:
            transport.close()


def _increment_task(state, amount):
    value = state["count"] + amount
    state["count"] = value
    return state, value


def _failing_task(state):
    raise RuntimeError("boom")


class TestPrivatePoolLifecycle:
    def test_private_pool_is_closed_by_the_topology(self):
        from repro.core.exceptions import CommunicationError
        from repro.fabric.topology import StarTopology
        from repro.fabric.transport import resolve_transport

        transport = resolve_transport(
            TransportConfig(kind="process", max_workers=1, reuse_pool=False)
        )
        assert transport.private
        topology = StarTopology(2, transport=transport)
        topology.init_state(0, {"count": 0})
        topology.init_state(1, {"count": 0})
        assert topology.run_all(_increment_task, [(1,), (2,)]) == [1, 2]
        topology.close()
        with pytest.raises(CommunicationError, match="closed"):
            transport.init_node("another", 0, {})

    def test_shared_pool_survives_a_run(self):
        from repro.fabric.transport import resolve_transport, transport_for

        config = TransportConfig(kind="process", max_workers=2)
        transport = resolve_transport(config)
        assert not transport.private
        assert transport is transport_for(config)

    def test_a_session_opens_once_every_worker_answered(self, monkeypatch):
        # Session(...) pays the workers' start-up: it returns only after each
        # slot's worker has booted far enough to answer a ping.
        import repro
        from repro.fabric.transport import Channel

        answered = []
        request = Channel.request

        def spy(channel, message):
            reply = request(channel, message)
            answered.append((channel.number, message, reply))
            return reply

        monkeypatch.setattr(Channel, "request", spy)
        config = TransportConfig(kind="process", max_workers=2, reuse_pool=False)
        with repro.session(model="coordinator", transport=config):
            assert sorted(answered) == [
                (0, ("ping",), ("ok", "pong")),
                (1, ("ping",), ("ok", "pong")),
            ]

    def test_solve_with_dedicated_pool(self):
        problem = random_feasible_lp(200, 2, seed=8).problem
        dedicated = TransportConfig(kind="process", max_workers=1, reuse_pool=False)
        a = solve(problem, model="coordinator", num_sites=2, seed=5,
                  sample_size=50, success_threshold=0.05, transport=dedicated)
        b = solve(problem, model="coordinator", num_sites=2, seed=5,
                  sample_size=50, success_threshold=0.05)
        assert_bit_identical(a, b)


def _maybe_fail_task(state, should_fail):
    if should_fail:
        raise RuntimeError("deliberate batch failure")
    return state, ("ok", state["tag"])


class TestPoolStaysUsableAfterErrors:
    def test_failed_batch_does_not_desync_other_workers(self):
        """A failing node must not leave stale replies in sibling workers'
        pipes: the next batch on the same (shared) pool must see fresh
        results, not the previous batch's."""
        from repro.core.exceptions import CommunicationError

        transport = ProcessPoolTransport(max_workers=2)
        try:
            transport.init_node("s", 0, {"tag": "w0"})
            transport.init_node("s", 1, {"tag": "w1"})
            with pytest.raises(CommunicationError, match="deliberate"):
                transport.run_nodes(
                    "s", [0, 1], _maybe_fail_task, [(True,), (False,)]
                )
            # Both workers answer the *new* request, not the old one.
            results = transport.run_nodes(
                "s", [0, 1], _maybe_fail_task, [(False,), (False,)]
            )
            assert results == [("ok", "w0"), ("ok", "w1")]
        finally:
            transport.close()
