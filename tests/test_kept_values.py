"""Shared values kept on the workers for the life of an API session.

A ``repro.session`` on the process or TCP transport ships each problem
object to every worker once; a later solve of the same object sends only a
reference, and the workers keep the value until the session closes or the
object is collected.  Pinned here, on ``kind="tcp"`` and on
``kind="process", shared_memory=False``:

* the kept path: a second solve ships no value bytes and equals the
  in-process result bit for bit, and a new object is shipped again;
  threads solving one object ship it once, whether through one session
  or through one session each on a shared transport;
* recovery: a fresh worker receives the kept value by replay (SIGKILL
  between two solves, and a ``worker_crash`` fault mid-solve), and a crash
  with no restart left degrades to in-process, still bit-identical;
* lifetime: ``Session.close()`` leaves no kept value on a shared
  transport's workers, a collected problem's value is gone after the next
  solve, and — with shared memory — its segment is gone too;
* direct solves install only what their one exchange reads.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import Counter

import pytest

from repro import TransportConfig, solve
from repro.api.session import Session
from repro.core.context import solve_scope
from repro.core.clarkson import ClarksonModel
from repro.fabric import shm
from repro.fabric.transport import InProcessTransport, transport_for
from repro.resilience import FaultPlan, FaultSpec
from repro.workloads import random_feasible_lp
from repro.workloads.transport_probe import kept_values_task

from test_api_facade import FAST, _lp_instance
from test_fabric_transports import assert_bit_identical

KINDS = {
    "tcp": dict(kind="tcp"),
    "pipe": dict(kind="process", shared_memory=False),
}
SOLVE_KWARGS = dict(
    seed=5, r=2, num_sites=3, sample_size=120, success_threshold=0.05,
    max_iterations=300,
)


def _problem(seed: int = 4):
    return random_feasible_lp(1500, 2, seed=seed).problem


def _reference(problem):
    return solve(problem, model="coordinator", **SOLVE_KWARGS)


def _session(kind: str, **transport) -> Session:
    config = TransportConfig(max_workers=2, reuse_pool=False, **KINDS[kind], **transport)
    return Session(model="coordinator", transport=config, **SOLVE_KWARGS)


def _shipped(transport, monkeypatch) -> list[int]:
    """Record the value bytes of every ``keep`` request the transport sends."""
    shipped: list[int] = []
    request = transport._request

    def recording(slot, message):
        if message[0] == "keep":
            shipped.append(len(message[2]))
        return request(slot, message)

    monkeypatch.setattr(transport, "_request", recording)
    return shipped


def _held(transport) -> list[list[str]]:
    """The reference names of the values each worker keeps, by slot."""
    slots = list(range(transport.max_workers))
    for slot in slots:
        transport.init_node("kept-probe", slot, {})
    try:
        return transport.run_nodes("kept-probe", slots, kept_values_task, [()] * len(slots))
    finally:
        transport.release("kept-probe")


# ---------------------------------------------------------------------- #
# The kept path
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_second_solve_ships_no_value_bytes(kind, monkeypatch):
    problem = _problem()
    reference = _reference(problem)
    with _session(kind) as session:
        transport = session._transport
        shipped = _shipped(transport, monkeypatch)
        first = session.solve(problem)
        assert len(shipped) == transport.max_workers and min(shipped) > 0
        shipped.clear()
        second = session.solve(problem)
        assert shipped == []
        assert_bit_identical(first, reference)
        assert_bit_identical(second, reference)
        health = transport.health()
        assert health["kept_values"] == 1 and health["kept_bytes"] > 0
        [[ref], [same]] = _held(transport)
        assert ref == same

        # The same instance as a new object is a new value: shipped again.
        third = session.solve(_problem())
        assert len(shipped) == transport.max_workers
        assert_bit_identical(third, reference)


def test_concurrent_solves_ship_one_kept_value(monkeypatch):
    """More threads than cores solve one problem object through one session:
    exactly one ship per worker, and every result bit-identical."""
    problem = _problem()
    reference = _reference(problem)
    results, errors = [], []
    with _session("pipe") as session:
        transport = session._transport
        shipped = _shipped(transport, monkeypatch)

        def drive() -> None:
            try:
                for _ in range(3):
                    results.append(session.run_cold(problem))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 12
        for result in results:
            assert_bit_identical(result, reference)
        assert len(shipped) == transport.max_workers
        assert transport.health()["kept_values"] == 1
    assert transport.health()["kept_values"] == 0


@pytest.mark.skipif(
    not shm.shared_memory_supported(), reason="no working POSIX shared memory"
)
def test_concurrent_api_sessions_share_one_kept_value(monkeypatch):
    """More threads than cores, each with its own API session on one shared
    process transport, solve one problem object: one ship per worker, one
    kept value and one segment while a session is open, and neither once
    every session has closed."""
    problem = _problem()
    reference = _reference(problem)
    config = TransportConfig(kind="process", max_workers=2)  # reuse_pool=True
    transport = transport_for(config)
    shipped = _shipped(transport, monkeypatch)
    before = set(shm.leaked_segments())
    all_solved = threading.Barrier(4)
    results, errors, held = [], [], []

    def drive() -> None:
        try:
            with Session(model="coordinator", transport=config, **SOLVE_KWARGS) as session:
                for _ in range(3):
                    results.append(session.solve(problem))
                all_solved.wait(timeout=120)
                segments = set(shm.leaked_segments()) - before
                held.append((transport.health()["kept_values"], len(segments)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=drive) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 12
    for result in results:
        assert_bit_identical(result, reference)
    assert len(shipped) == transport.max_workers
    assert held == [(1, 1)] * 4
    assert transport.health()["kept_values"] == 0
    assert set(shm.leaked_segments()) - before == set()


# ---------------------------------------------------------------------- #
# Recovery: replay and degradation carry the kept values
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sigkill_between_solves_replays_the_kept_value(kind):
    problem = _problem()
    reference = _reference(problem)
    with _session(kind) as session:
        transport = session._transport
        session.solve(problem)
        before = _held(transport)
        transport.kill_worker(0)
        result = session.solve(problem)
        assert transport.total_restarts >= 1
        assert result.resources.transport_retries >= 1
        assert not transport.degraded
        assert_bit_identical(result, reference)
        # The fresh worker received the kept value by replay.
        assert _held(transport) == before


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_worker_crash_mid_solve_replays_the_kept_value(kind):
    problem = _problem()
    reference = _reference(problem)
    with _session(kind) as session:
        transport = session._transport
        session.solve(problem)
        before = _held(transport)
        plan = FaultPlan([FaultSpec(kind="worker_crash", at=2, node=1)])
        transport.attach_fault_plan(plan)
        try:
            result = session.solve(problem)
        finally:
            transport.attach_fault_plan(None)
        assert ("dispatch", 1, "worker_crash") in plan.fired
        assert transport.total_restarts >= 1
        assert result.resources.transport_retries >= 1
        assert not transport.degraded
        assert_bit_identical(result, reference)
        assert _held(transport) == before


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_crash_without_restarts_degrades_with_the_kept_value(kind):
    problem = _problem()
    reference = _reference(problem)
    with _session(kind, max_restarts=0) as session:
        transport = session._transport
        session.solve(problem)
        transport.kill_worker(0)
        result = session.solve(problem)
        assert transport.degraded
        assert result.metadata.get("transport_degraded") is True
        assert_bit_identical(result, reference)


# ---------------------------------------------------------------------- #
# Lifetime: nothing outlives its pin or its object
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_close_drops_the_kept_values_of_a_shared_transport(kind):
    config = TransportConfig(max_workers=2, **KINDS[kind])  # reuse_pool=True
    transport = transport_for(config)
    with Session(model="coordinator", transport=config, **SOLVE_KWARGS) as session:
        session.solve(_problem())
        assert [len(refs) for refs in _held(transport)] == [1, 1]
    assert transport.health()["kept_values"] == 0
    assert _held(transport) == [[], []]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_collected_problem_is_dropped_at_the_next_solve(kind):
    with _session(kind) as session:
        transport = session._transport
        problem = _problem(seed=4)
        session.solve(problem)
        [[old], _] = _held(transport)
        del problem
        session.reset()
        gc.collect()
        session.solve(_problem(seed=5))
        [[new], [same]] = _held(transport)
        assert new == same != old
        assert transport.health()["kept_values"] == 1


@pytest.mark.skipif(
    not shm.shared_memory_supported(), reason="no working POSIX shared memory"
)
def test_a_pinned_segment_ends_with_its_problem():
    before = set(shm.leaked_segments())
    config = TransportConfig(kind="process", max_workers=2, reuse_pool=False)
    with Session(model="coordinator", transport=config, **SOLVE_KWARGS) as session:
        for seed in range(6):
            problem = _problem(seed=seed)
            session.solve(problem)
            del problem
            session.reset()
            gc.collect()
            # The collected problems' segments are gone; at most the last
            # one waits for the transport's next exchange.
            assert len(set(shm.leaked_segments()) - before) <= 1
        _held(session._transport)
        assert shm.store().segment_names() == []
        # A resolve_with chain replaces the session's problem every time.
        session.solve(_problem(seed=9))
        for _ in range(4):
            session.resolve_with(removed=[0])
            gc.collect()
            _held(session._transport)
            assert len(shm.store().segment_names()) == 1
        assert [len(refs) for refs in _held(session._transport)] == [1, 1]
    assert set(shm.leaked_segments()) - before == set()


# ---------------------------------------------------------------------- #
# Direct solves install only what they read
# ---------------------------------------------------------------------- #


class _CountingTransport(InProcessTransport):
    """The in-process transport, counting calls and keeping the node states."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: Counter = Counter()
        self.states: list = []

    def init_shared(self, session, key, value):
        self.calls["init_shared"] += 1
        super().init_shared(session, key, value)

    def init_node(self, session, node_id, state):
        self.calls["init_node"] += 1
        self.states.append(state)
        super().init_node(session, node_id, state)

    def run_nodes(self, session, node_ids, fn, args_list):
        self.calls["run_nodes"] += 1
        return super().run_nodes(session, node_ids, fn, args_list)


def test_a_direct_mpc_solve_installs_nothing():
    problem = _lp_instance()
    transport = _CountingTransport()
    with solve_scope(transport=transport):
        result = solve(
            problem, model="mpc", seed=0, delta=0.5,
            **dict(FAST, sample_size=problem.num_constraints),
        )
    assert result.metadata["algorithm"] == "mpc_clarkson" and result.iterations == 1
    assert transport.calls == Counter()


def test_a_warm_direct_coordinator_solve_installs_only_the_shares(monkeypatch):
    problem = _lp_instance()
    sweeps = []
    warm_exponents = ClarksonModel.warm_exponents

    def counting(self):
        sweeps.append(self)
        return warm_exponents(self)

    monkeypatch.setattr(ClarksonModel, "warm_exponents", counting)
    transport = _CountingTransport()
    with solve_scope(transport=transport):
        with Session(model="coordinator", seed=0, r=2, num_sites=4, **FAST) as session:
            session.solve(problem)
            transport.calls.clear()
            transport.states.clear()
            sweeps.clear()
            result = session.resolve_with(
                removed=[0], sample_size=problem.num_constraints
            )
    assert result.warm.warm_start and result.iterations == 1
    assert sweeps == []
    assert transport.calls == Counter(init_shared=1, init_node=4, run_nodes=1)
    assert all(set(state) == {"problem", "local_indices"} for state in transport.states)
