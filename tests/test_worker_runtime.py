"""The one worker runtime: one command loop, one journaled dispatcher.

* :func:`~repro.fabric.transport.worker_loop` answers the same command
  sequence with the same replies whether it runs in a pool worker over a
  pipe or in a node agent over a socket;
* the journal keeps each worker's acknowledged batch, even when another
  worker's task in the same batch raised, so a replay after a crash
  reproduces the pre-crash state on both transport kinds;
* a transport built from a :class:`~repro.TransportConfig` honours every
  field, shared (``reuse_pool=True``) or not.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import pickle
import sys
import threading

import pytest

from repro import TransportConfig
from repro.cluster import ClusterRegistry, NodeAgent
from repro.core.exceptions import CommunicationError
from repro.fabric import wirecodec
from repro.fabric.transport import SharedRef, resolve_transport, worker_loop
from repro.resilience import FaultPlan, FaultSpec
from repro.workloads.transport_probe import kept_values_task


def counter_task(state, step, fail):
    """Top-level on purpose — workers unpickle task functions by reference."""
    state["count"] += int(step)
    if fail:
        raise RuntimeError("deliberate task failure")
    return state, state["count"]


def biased_task(state, step):
    state["count"] += int(step)
    return state, (state["count"], state["bias"])


# ---------------------------------------------------------------------- #
# One command loop behind both channels
# ---------------------------------------------------------------------- #

COMMANDS = [
    ("keep", "v0", pickle.dumps(2.5)),
    ("bind", "s", "bias", "v0"),
    ("init", "s", 0, wirecodec.dumps({"count": 0, "bias": SharedRef("bias")})),
    ("run", "s", [(0, pickle.dumps(biased_task), wirecodec.dumps((3,)))]),
    ("ping",),
    ("bogus", 1),
    ("run", "s", [(0, pickle.dumps(counter_task), wirecodec.dumps((1, True)))]),
    ("release", "s"),
    ("stop",),
]


def _pipe_replies() -> list:
    context = mp.get_context("spawn")
    parent_conn, child_conn = context.Pipe()
    process = context.Process(target=worker_loop, args=(child_conn,), daemon=True)
    process.start()
    child_conn.close()
    try:
        replies = []
        for command in COMMANDS:
            parent_conn.send(command)
            replies.append(parent_conn.recv())
        process.join(timeout=10)
        assert process.exitcode == 0  # stop ends the loop
        return replies
    finally:
        parent_conn.close()
        if process.is_alive():
            process.kill()
            process.join(timeout=5)


def _agent_replies() -> list:
    registry = ClusterRegistry(("127.0.0.1", 0), heartbeat_interval_s=0.1)
    exit_codes = []
    agent = threading.Thread(
        target=lambda: exit_codes.append(NodeAgent().run_connect(registry.address)),
        daemon=True,
    )
    agent.start()
    try:
        [member_id] = registry.wait_for(1, timeout=10.0)
        replies = [registry.request(member_id, command, timeout=10.0) for command in COMMANDS]
        agent.join(timeout=10.0)
        assert exit_codes == [0]  # stop ends the loop
        return replies
    finally:
        registry.drain()


def test_pipe_worker_and_agent_answer_alike():
    over_pipe = _pipe_replies()
    over_socket = _agent_replies()
    assert over_pipe == over_socket
    keep, bind, init, run, ping, unknown, failed, release, stop = over_pipe
    assert keep == bind == init == release == stop == ("ok", None)
    assert run[0] == "ok" and [wirecodec.loads(r) for r in run[1]] == [(3, 2.5)]
    assert ping == ("ok", "pong")
    assert unknown == ("error", "unknown command 'bogus'")
    assert failed[0] == "error" and "deliberate task failure" in failed[1]


def _task(fn, *args) -> tuple:
    return (0, pickle.dumps(fn), wirecodec.dumps(args))


#: A value kept under "v0" serves two sessions, outlives the first one's
#: release, and is gone after the drop.
KEPT_COMMANDS = [
    ("keep", "v0", pickle.dumps(2.5)),
    ("bind", "s", "bias", "v0"),
    ("init", "s", 0, wirecodec.dumps({"count": 0, "bias": SharedRef("bias")})),
    ("run", "s", [_task(biased_task, 3)]),
    ("release", "s"),
    ("bind", "t", "bias", "v0"),
    ("init", "t", 0, wirecodec.dumps({"count": 1, "bias": SharedRef("bias")})),
    ("run", "t", [_task(kept_values_task), _task(biased_task, 3)]),
    ("drop", ["v0"]),
    ("run", "t", [_task(kept_values_task)]),
    ("bind", "u", "bias", "v0"),
    ("stop",),
]


def test_kept_value_commands_answer_alike(monkeypatch):
    monkeypatch.setitem(globals(), "COMMANDS", KEPT_COMMANDS)
    over_pipe = _pipe_replies()
    over_socket = _agent_replies()
    assert over_pipe == over_socket
    keep, bind, init, run, release, rebind, reinit, probe, drop, gone, unbound, stop = (
        over_pipe
    )
    assert keep == bind == init == release == rebind == reinit == drop == stop == ("ok", None)
    assert [wirecodec.loads(r) for r in run[1]] == [(3, 2.5)]
    held, biased = (wirecodec.loads(r) for r in probe[1])
    assert list(held) == ["v0"] and biased == (4, 2.5)
    assert [list(wirecodec.loads(r)) for r in gone[1]] == [[]]
    assert unbound[0] == "error" and "KeyError" in unbound[1]


# ---------------------------------------------------------------------- #
# The journal records what each worker applied
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ("process", "tcp"))
def test_journal_keeps_a_batch_whose_sibling_raised(kind):
    """Node 0's second round completed on worker 0 while node 1's task raised
    on worker 1; after worker 0 is SIGKILLed the replay must include it."""
    transport = resolve_transport(
        TransportConfig(kind=kind, max_workers=2, reuse_pool=False)
    )
    try:
        for node_id in (0, 1):
            transport.init_node("s", node_id, {"count": 0})
        assert transport.run_nodes("s", [0, 1], counter_task, [(1, False)] * 2) == [1, 1]
        with pytest.raises(CommunicationError, match="deliberate task failure"):
            transport.run_nodes("s", [0, 1], counter_task, [(10, False), (10, True)])
        transport.kill_worker(0)
        assert transport.run_nodes("s", [0], counter_task, [(100, False)]) == [111]
        assert transport.total_restarts == 1
        assert not transport.degraded
    finally:
        transport.close()


def test_concurrent_sessions_survive_a_crash():
    """More threads than cores share one pool; one kills a worker mid-run.
    Every session must still count every round exactly once, and recovery
    must neither deadlock nor lose an acknowledged batch."""
    transport = resolve_transport(
        TransportConfig(kind="process", max_workers=2, reuse_pool=False)
    )
    rounds, threads = 12, 4
    finals: dict[int, list] = {}
    errors: list[BaseException] = []

    def drive(index: int) -> None:
        session = f"stress-{index}"
        try:
            for node_id in range(4):
                transport.init_node(session, node_id, {"count": 0})
            for round_index in range(rounds):
                if index == 0 and round_index == rounds // 2:
                    transport.kill_worker(1)
                out = transport.run_nodes(
                    session, list(range(4)), counter_task, [(1, False)] * 4
                )
            finals[index] = out
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=drive, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        transport.close()
    assert not errors, errors
    assert finals == {index: [rounds] * 4 for index in range(threads)}
    assert transport.total_restarts >= 1
    assert not transport.degraded


# ---------------------------------------------------------------------- #
# Shared transports honour their whole config
# ---------------------------------------------------------------------- #


def test_shared_pool_honours_max_restarts():
    config = TransportConfig(kind="process", max_workers=2, max_restarts=0)
    transport = resolve_transport(config)
    try:
        assert not transport.private  # the default reuse_pool shares it
        transport.attach_fault_plan(FaultPlan([FaultSpec(kind="worker_crash", at=1)]))
        for node_id in (0, 1):
            transport.init_node("s", node_id, {"count": 0})
        assert transport.run_nodes("s", [0, 1], counter_task, [(1, False)] * 2) == [1, 1]
        assert transport.degraded
        assert transport.total_restarts == 0
    finally:
        transport.close()


def test_shared_tcp_transport_honours_its_config():
    config = TransportConfig(
        kind="tcp",
        max_restarts=0,
        listen="127.0.0.1:45999",
        registration_timeout_s=3.0,
        heartbeat_interval_s=0.25,
    )
    transport = resolve_transport(config)  # built, not started: nothing binds
    other = resolve_transport(dataclasses.replace(config, max_restarts=1))
    try:
        assert transport is resolve_transport(config)
        assert other is not transport
        assert transport.max_restarts == 0
        assert transport._listen == ("127.0.0.1", 45999)
        assert transport.registration_timeout_s == 3.0
        assert transport.heartbeat_interval_s == 0.25
    finally:
        transport.close()
        other.close()
