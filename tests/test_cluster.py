"""The cluster subsystem: framing, membership, handshake, TcpTransport.

Four layers under test, bottom-up:

* wirecodec stream framing — partial reads, short writes, truncation;
* :class:`HeartbeatMonitor` — every liveness transition, driven by a fake
  clock (no sleeps);
* the registration handshake — protocol/version negotiation and rejects;
* :class:`TcpTransport` — the socket-backed fabric backend, which must be
  **bit-identical** to the in-process and process-pool transports for every
  problem family and model, including after a node agent is SIGKILLed
  mid-solve (journal replay) and after the cluster degrades to a local
  process pool.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from test_fabric_transports import (
    MODELS,
    PROBLEMS,
    _build_problem,
    _model_overrides,
    _solve,
    assert_bit_identical,
)

from repro import TransportConfig, solve
from repro.api.session import Session
from repro.cluster import (
    ClusterRegistry,
    HeartbeatMonitor,
    LIVENESS_STATES,
    TcpTransport,
    parse_address,
)
from repro.cluster.protocol import (
    PROTOCOL_NAME,
    SUPPORTED_VERSIONS,
    HandshakeError,
    hello_message,
    negotiate_version,
)
from repro.core.exceptions import CommunicationError
from repro.fabric import wirecodec
from repro.fabric.transport import InProcessTransport
from repro.resilience import FaultPlan, FaultSpec
from tests.conftest import cmdline, live_descendants

SOLVE_KWARGS = dict(
    seed=11,
    sample_size=60,
    success_threshold=0.05,
    max_iterations=300,
    keep_trace=True,
)


def counter_task(state, step):
    """State-resident counter + RNG draw: exercises bit-identity per node.

    Top-level on purpose — node agents unpickle task functions by reference.
    """
    state["count"] += int(step)
    state["draw"] = float(state["rng"].random())
    return state, (state["count"], state["draw"])


def _recv_from(data: bytes, chunk: int = 1 << 16):
    """A ``recv``-shaped callable that serves ``data`` at most ``chunk`` at
    a time (and then behaves like a closed socket)."""
    offset = 0

    def recv(count: int) -> bytes:
        nonlocal offset
        take = min(count, chunk, len(data) - offset)
        piece = data[offset : offset + take]
        offset += take
        return piece

    return recv


# ---------------------------------------------------------------------- #
# Stream framing
# ---------------------------------------------------------------------- #


class TestWireFraming:
    PAYLOADS = [
        ("keep", "v0", b"x" * 100),
        {"nested": [1, 2.5, None, True]},
        np.arange(12.0).reshape(3, 4),
    ]

    def test_frame_roundtrip(self):
        for obj in self.PAYLOADS:
            payload = wirecodec.dumps(obj)
            framed = wirecodec.frame(payload)
            assert framed[:4] == struct.pack("!I", len(payload))
            assert wirecodec.read_frame(_recv_from(framed)) == payload

    def test_read_frame_survives_one_byte_dribble(self):
        payload = wirecodec.dumps(list(range(64)))
        recv = _recv_from(wirecodec.frame(payload), chunk=1)
        assert wirecodec.read_frame(recv) == payload

    def test_back_to_back_frames_stay_aligned(self):
        first = wirecodec.dumps("first")
        second = wirecodec.dumps(["second", 2])
        recv = _recv_from(wirecodec.frame(first) + wirecodec.frame(second), chunk=3)
        assert wirecodec.read_frame(recv) == first
        assert wirecodec.read_frame(recv) == second
        with pytest.raises(EOFError):
            wirecodec.read_frame(recv)

    def test_clean_close_between_frames_is_eof(self):
        with pytest.raises(EOFError):
            wirecodec.read_frame(_recv_from(b""))

    def test_truncated_payload_is_typed(self):
        framed = wirecodec.frame(wirecodec.dumps({"k": 1}))
        with pytest.raises(wirecodec.TruncatedFrameError):
            wirecodec.read_frame(_recv_from(framed[:-1]))

    def test_truncated_header_is_typed(self):
        framed = wirecodec.frame(wirecodec.dumps("x"))
        with pytest.raises(wirecodec.TruncatedFrameError):
            wirecodec.read_frame(_recv_from(framed[:2]))

    def test_oversized_length_prefix_is_rejected(self):
        header = struct.pack("!I", wirecodec.MAX_FRAME_BYTES + 1)
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            wirecodec.read_frame(_recv_from(header + b"junk"))

    def test_read_exactly_assembles_short_reads(self):
        assert wirecodec.read_exactly(_recv_from(b"abcdef", chunk=2), 6) == b"abcdef"
        with pytest.raises(EOFError):
            wirecodec.read_exactly(_recv_from(b""), 4)
        with pytest.raises(wirecodec.TruncatedFrameError):
            wirecodec.read_exactly(_recv_from(b"ab"), 4)

    def test_loads_rejects_truncated_encodings(self):
        payload = wirecodec.dumps({"rows": np.ones(8), "tag": "t"})
        # Cuts below len(MAGIC) are indistinguishable from a foreign pickle;
        # anything at or past the magic must raise the typed truncation error.
        for cut in (len(wirecodec.MAGIC), len(payload) // 2, len(payload) - 1):
            with pytest.raises(wirecodec.TruncatedFrameError):
                wirecodec.loads(payload[:cut])


# ---------------------------------------------------------------------- #
# Membership
# ---------------------------------------------------------------------- #


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _monitor(**overrides):
    clock = _FakeClock()
    kwargs = dict(heartbeat_timeout_s=2.0, registration_timeout_s=30.0, clock=clock)
    kwargs.update(overrides)
    return HeartbeatMonitor(**kwargs), clock


class TestHeartbeatMonitor:
    def test_lifecycle_states_are_documented(self):
        assert LIVENESS_STATES == ("joining", "ready", "suspect", "dead")

    def test_register_then_ready(self):
        monitor, _ = _monitor()
        monitor.register("agent-1")
        assert monitor.state("agent-1") == "joining"
        monitor.ready("agent-1")
        assert monitor.state("agent-1") == "ready"

    def test_duplicate_register_rejected(self):
        monitor, _ = _monitor()
        monitor.register("agent-1")
        with pytest.raises(ValueError, match="agent-1"):
            monitor.register("agent-1")

    def test_silence_walks_ready_to_suspect_to_dead(self):
        monitor, clock = _monitor()
        monitor.register("agent-1")
        monitor.ready("agent-1")
        clock.advance(2.5)  # past heartbeat_timeout_s, inside 2x
        assert monitor.evaluate() == []
        assert monitor.state("agent-1") == "suspect"
        clock.advance(2.0)  # now 4.5s silent > 2 * 2.0
        died = monitor.evaluate()
        assert [member for member, _ in died] == ["agent-1"]
        assert "heartbeat expired" in died[0][1]
        assert monitor.state("agent-1") == "dead"

    def test_late_heartbeat_rescues_suspect(self):
        monitor, clock = _monitor()
        monitor.register("agent-1")
        monitor.ready("agent-1")
        clock.advance(2.5)
        monitor.evaluate()
        assert monitor.state("agent-1") == "suspect"
        monitor.beat("agent-1")
        assert monitor.state("agent-1") == "ready"
        clock.advance(1.0)  # only 1s since the rescue beat
        assert monitor.evaluate() == []
        assert monitor.state("agent-1") == "ready"

    def test_dead_is_sticky(self):
        monitor, clock = _monitor()
        monitor.register("agent-1")
        monitor.ready("agent-1")
        clock.advance(10.0)
        assert monitor.evaluate(), "expected the member to die"
        monitor.beat("agent-1")
        monitor.ready("agent-1")
        assert monitor.state("agent-1") == "dead"
        assert monitor.evaluate() == []  # only *newly* dead members reported

    def test_registration_timeout_kills_joining_members(self):
        monitor, clock = _monitor(registration_timeout_s=5.0)
        monitor.register("agent-1")
        clock.advance(4.0)
        assert monitor.evaluate() == []
        clock.advance(2.0)
        assert monitor.evaluate() == [("agent-1", "registration timeout")]

    def test_mark_dead_reports_newly_dead_only_once(self):
        monitor, _ = _monitor()
        monitor.register("agent-1")
        monitor.ready("agent-1")
        assert monitor.mark_dead("agent-1", "socket EOF") is True
        assert monitor.mark_dead("agent-1", "again") is False
        assert monitor.snapshot()["agent-1"]["reason"] == "socket EOF"

    def test_snapshot_shape(self):
        monitor, clock = _monitor()
        monitor.register("agent-1")
        monitor.ready("agent-1")
        monitor.beat("agent-1")
        clock.advance(0.5)
        snap = monitor.snapshot()
        assert snap["agent-1"]["state"] == "ready"
        assert snap["agent-1"]["beats"] == 1
        assert snap["agent-1"]["since_last_beat_s"] == pytest.approx(0.5)

    def test_invalid_timeouts_rejected(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(heartbeat_timeout_s=0.0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(registration_timeout_s=-1.0)


# ---------------------------------------------------------------------- #
# Handshake protocol
# ---------------------------------------------------------------------- #


class TestProtocol:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address("node7.internal:41") == ("node7.internal", 41)

    @pytest.mark.parametrize("bad", ["nocolon", ":123", "host:", "host:fast"])
    def test_parse_address_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_negotiate_picks_highest_common_version(self):
        assert negotiate_version(list(SUPPORTED_VERSIONS)) == max(SUPPORTED_VERSIONS)
        assert negotiate_version([99, 1]) == 1

    @pytest.mark.parametrize("offered", [[99], [], "bogus", None])
    def test_negotiate_rejects_no_overlap_and_garbage(self, offered):
        with pytest.raises(HandshakeError):
            negotiate_version(offered)

    def test_hello_message_shape(self):
        kind, body = hello_message("node-a", 1234)
        assert kind == "hello"
        assert body["protocol"] == PROTOCOL_NAME
        assert tuple(body["versions"]) == SUPPORTED_VERSIONS
        assert body["name"] == "node-a"
        assert body["pid"] == 1234


def _frame_conn(sock):
    from repro.cluster.protocol import FrameConnection

    return FrameConnection(sock)


class TestRegistryHandshake:
    def test_wrong_protocol_is_rejected(self):
        import socket as socket_mod

        registry = ClusterRegistry(("127.0.0.1", 0), heartbeat_interval_s=0.1)
        try:
            conn = _frame_conn(socket_mod.create_connection(registry.address))
            conn.send(("hello", {"protocol": "smtp", "versions": [1]}))
            kind, reason = conn.recv(timeout=5.0)
            assert kind == "reject"
            assert "protocol" in reason
            conn.close()
        finally:
            registry.drain()

    def test_version_mismatch_is_rejected(self):
        import socket as socket_mod

        registry = ClusterRegistry(("127.0.0.1", 0), heartbeat_interval_s=0.1)
        try:
            conn = _frame_conn(socket_mod.create_connection(registry.address))
            conn.send(("hello", {"protocol": PROTOCOL_NAME, "versions": [99]}))
            kind, _ = conn.recv(timeout=5.0)
            assert kind == "reject"
            conn.close()
        finally:
            registry.drain()

    def test_good_handshake_negotiates_and_tracks_liveness(self):
        import socket as socket_mod

        registry = ClusterRegistry(
            ("127.0.0.1", 0), heartbeat_interval_s=0.05, heartbeat_timeout_s=0.3
        )
        try:
            conn = _frame_conn(socket_mod.create_connection(registry.address))
            conn.send(hello_message("probe", os.getpid()))
            kind, body = conn.recv(timeout=5.0)
            assert kind == "welcome"
            assert body["version"] in SUPPORTED_VERSIONS
            member_id = body["agent_id"]
            assert registry.wait_for(1, timeout=5.0) == [member_id]
            health = registry.health()
            assert health["liveness"][member_id]["state"] == "ready"
            # Silence past 2x heartbeat_timeout_s must kill the member.
            deadline = time.monotonic() + 5.0
            while registry.alive_members() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert registry.alive_members() == []
            conn.close()
        finally:
            registry.drain()


# ---------------------------------------------------------------------- #
# TcpTransport primitives (one shared loopback cluster for the class)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def tcp():
    transport = TcpTransport(
        max_workers=2, heartbeat_interval_s=0.2, heartbeat_timeout_s=2.0
    )
    transport.warm_up()
    yield transport
    transport.close()


def _run_rounds(transport, session, *, nodes=4, rounds=2, seed=17, bias=2.0):
    """The reference interaction: share + per-node init + task rounds."""
    transport.init_shared(session, "bias", bias)
    for node_id in range(nodes):
        transport.init_node(
            session,
            node_id,
            {"count": node_id, "rng": np.random.default_rng(seed + node_id)},
        )
    outputs = []
    for round_index in range(rounds):
        outputs.append(
            transport.run_nodes(
                session,
                list(range(nodes)),
                counter_task,
                [(round_index + 1,)] * nodes,
            )
        )
    return outputs


class TestTcpTransportPrimitives:
    def test_round_trip_matches_in_process(self, tcp):
        reference = InProcessTransport()
        assert _run_rounds(tcp, "prim-a") == _run_rounds(reference, "prim-a")
        tcp.release("prim-a")
        reference.release("prim-a")

    def test_health_exposes_the_cluster(self, tcp):
        tcp.warm_up()
        health = tcp.health()
        assert health["kind"] == "tcp"
        assert health["supervised"] is True
        assert health["degraded"] is False
        cluster = health["cluster"]
        assert cluster["ready"] == 2
        assert [m["state"] for m in cluster["liveness"].values()] == ["ready", "ready"]
        assert set(cluster["slots"]) == {"0", "1"}

    def test_ping(self, tcp):
        assert tcp.ping() == [True, True]

    def test_release_forgets_node_state(self, tcp):
        tcp.init_node("prim-gone", 0, {"count": 0, "rng": np.random.default_rng(1)})
        tcp.release("prim-gone")
        with pytest.raises(CommunicationError):
            tcp.run_nodes("prim-gone", [0], counter_task, [(1,)])

    def test_unknown_session_is_a_typed_error(self, tcp):
        with pytest.raises(CommunicationError):
            tcp.run_nodes("never-initialised", [0], counter_task, [(1,)])


# ---------------------------------------------------------------------- #
# Failure handling: SIGKILL recovery, respawn, degrade
# ---------------------------------------------------------------------- #


class TestTcpRecovery:
    def test_sigkilled_agent_replays_bit_identically(self):
        """Kill an agent between rounds; the journal replay onto the
        surviving/respawned member must reproduce the exact RNG streams."""
        reference = InProcessTransport()
        expected = _run_rounds(reference, "chaos", rounds=3)
        transport = TcpTransport(
            max_workers=2, heartbeat_interval_s=0.2, heartbeat_timeout_s=2.0
        )
        try:
            transport.init_shared("chaos", "bias", 2.0)
            for node_id in range(4):
                transport.init_node(
                    "chaos",
                    node_id,
                    {"count": node_id, "rng": np.random.default_rng(17 + node_id)},
                )
            outputs = [
                transport.run_nodes("chaos", list(range(4)), counter_task, [(1,)] * 4)
            ]
            transport.kill_agent(0)
            for round_index in (1, 2):
                outputs.append(
                    transport.run_nodes(
                        "chaos",
                        list(range(4)),
                        counter_task,
                        [(round_index + 1,)] * 4,
                    )
                )
            assert outputs == expected
            assert transport.total_restarts >= 1
            assert not transport.degraded
        finally:
            transport.close()
            reference.close()

    def test_losing_every_agent_degrades_to_a_local_pool(self):
        reference = InProcessTransport()
        expected = _run_rounds(reference, "degrade", rounds=2)
        transport = TcpTransport(
            max_workers=2,
            heartbeat_interval_s=0.2,
            heartbeat_timeout_s=2.0,
            max_restarts=0,
        )
        try:
            transport.init_shared("degrade", "bias", 2.0)
            for node_id in range(4):
                transport.init_node(
                    "degrade",
                    node_id,
                    {"count": node_id, "rng": np.random.default_rng(17 + node_id)},
                )
            first = transport.run_nodes(
                "degrade", list(range(4)), counter_task, [(1,)] * 4
            )
            transport.kill_agent(0)
            transport.kill_agent(1)
            second = transport.run_nodes(
                "degrade", list(range(4)), counter_task, [(2,)] * 4
            )
            assert [first, second] == expected
            assert transport.degraded is True
            assert transport.health()["degraded"] is True
        finally:
            transport.close()
            reference.close()


    def test_a_missed_registration_leaves_no_agent(self):
        # A transport that never started is not shut down by close(), so
        # the agents its failed start launched must be reaped by the start.
        def agents():
            return {pid for pid in live_descendants() if "repro node" in cmdline(pid)}

        before = agents()
        transport = TcpTransport(max_workers=2, registration_timeout_s=0.05)
        with pytest.raises(TimeoutError, match="members after"):
            transport.warm_up()
        transport.close()
        deadline = time.monotonic() + 5.0
        while agents() - before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert agents() - before == set()


# ---------------------------------------------------------------------- #
# The full solve path: cross-transport bit-identity grid + chaos cells
# ---------------------------------------------------------------------- #

TCP = TransportConfig(kind="tcp", max_workers=2)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family", PROBLEMS)
def test_tcp_transport_is_bit_identical(model, family):
    problem = _build_problem(family)
    inproc = _solve(problem, model, None)
    over_tcp = _solve(problem, model, TCP)
    assert inproc.metadata["transport"] == "inprocess"
    assert over_tcp.metadata["transport"] == "tcp"
    assert_bit_identical(inproc, over_tcp)


def _tcp_session(model: str = "coordinator", **transport_overrides):
    cfg = {"kind": "tcp", "max_workers": 2, "reuse_pool": False, **transport_overrides}
    return Session(
        model=model, transport=cfg, **SOLVE_KWARGS, **_model_overrides(model)
    )


class TestTcpSolveChaos:
    def test_sigkill_mid_solve_is_bit_identical(self):
        problem = _build_problem("lp")
        baseline = _solve(problem, "coordinator", None)
        session = _tcp_session()
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
            # The healed cluster keeps serving bit-identical results.
            transport.attach_fault_plan(None)
            session.reset()
            assert_bit_identical(session.solve(problem), baseline)
        finally:
            session.close()

    def test_exhausted_cluster_degrades_and_flags_metadata(self):
        problem = _build_problem("meb")
        baseline = _solve(problem, "coordinator", None)
        session = _tcp_session(max_workers=1, max_restarts=0)
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


# ---------------------------------------------------------------------- #
# External agents: --listen mode dialed by addresses=
# ---------------------------------------------------------------------- #


def test_listen_agent_serves_a_dialing_coordinator(tmp_path):
    src_root = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    paths = [str(src_root), str(Path(__file__).resolve().parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "node", "--listen", "127.0.0.1:0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    transport = None
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on ")
        address = parse_address(banner.removeprefix("listening on "))
        transport = TcpTransport(addresses=[address])
        reference = InProcessTransport()
        assert _run_rounds(transport, "dial", nodes=2) == _run_rounds(
            reference, "dial", nodes=2
        )
        transport.close()
        transport = None
        assert proc.wait(timeout=10.0) == 0  # drain sends a clean stop
    finally:
        if transport is not None:
            transport.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5.0)
        proc.stdout.close()
