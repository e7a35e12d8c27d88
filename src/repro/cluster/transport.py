"""``TcpTransport`` — node tasks on cluster members over real sockets.

A configuration of the fabric's one
:class:`~repro.fabric.transport.JournaledTransport`: the same slots
(``node_id % max_workers``), journal, recovery ladder and in-process
degradation as the process pool, with each slot served by a cluster member
(a :class:`~repro.cluster.agent.NodeAgent` running the same
:func:`~repro.fabric.transport.worker_loop`) instead of a pipe worker.  A
solve is therefore bit-identical whichever backend runs it — the
cross-transport grid in ``tests/test_cluster.py`` pins TCP against both.

By default the transport spawns its own loopback agents
(``python -m repro node --connect``), so single-host callers need no agent
management, and it replaces a lost agent with a freshly spawned one.  Pass
``addresses=`` to attach ``--listen`` agents on other hosts instead (one
slot per address, nothing spawned); a lost one's slots then move to a
surviving member.  Socket loss and heartbeat expiry (the registry's
:class:`~repro.cluster.registry.MemberDead`) surface as retryable
:class:`~repro.core.exceptions.TransportFailure`.

No shared-memory shipping over TCP: a ``ShippedObject`` handle references
local pages a remote host cannot map, so ``init_shared`` ships plain
pickles — once per API session, since the agents keep each value and later
solves of the same object send only its reference name.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .protocol import parse_address
from .registry import ClusterRegistry, MemberDead
from ..core.exceptions import TransportFailure
from ..fabric.transport import Channel, JournaledTransport

__all__ = ["TcpTransport"]


def _member_number(member_id: str) -> int:
    """``"agent-12"`` -> 12 (lock/sort order; robust to odd ids)."""
    try:
        return int(member_id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0


def _coerce_address(value) -> Tuple[str, int]:
    if isinstance(value, str):
        return parse_address(value)
    host, port = value
    return str(host), int(port)


class _MemberChannel(Channel):
    """One registered agent, reached through the registry's per-member RPC.

    The lock is the member's RPC lock, so the registry's own requests (the
    ``stop`` of a drain) pair with their replies too.
    """

    def __init__(
        self,
        registry: ClusterRegistry,
        member_id: str,
        proc: Optional[subprocess.Popen] = None,
    ) -> None:
        self.registry = registry
        self.member_id = self.name = member_id
        self.number = _member_number(member_id)
        self.pid = registry.member_pid(member_id)
        self.lock = registry.lock(member_id)
        self.proc = proc  # set when this transport spawned the agent

    def send(self, message: tuple) -> None:
        try:
            self.registry.post(self.member_id, message)
        except MemberDead as exc:
            raise TransportFailure(str(exc), retryable=True) from exc

    def recv(self) -> tuple:
        try:
            return self.registry.take(self.member_id)
        except MemberDead as exc:
            raise TransportFailure(str(exc), retryable=True) from exc

    def alive(self) -> bool:
        return self.member_id in self.registry.alive_members()

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=5)
        else:
            os.kill(self.pid, signal.SIGKILL)

    def discard(self) -> None:
        self.registry.forget(self.member_id)
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=5)


class TcpTransport(JournaledTransport):
    """Real multi-host workers behind the fabric's transport contract."""

    name = "tcp"

    def __init__(
        self,
        max_workers: int = 2,
        *,
        listen=("127.0.0.1", 0),
        addresses: Sequence = (),
        spawn_agents: Optional[bool] = None,
        heartbeat_interval_s: float = 0.5,
        heartbeat_timeout_s: float = 2.0,
        registration_timeout_s: float = 30.0,
        max_restarts: int = 3,
    ) -> None:
        self.addresses = tuple(_coerce_address(a) for a in addresses)
        super().__init__(len(self.addresses) or max_workers, max_restarts=max_restarts)
        # Spawning defaults to "yes unless explicit agents were given".
        self._spawn = bool(spawn_agents) if spawn_agents is not None else not self.addresses
        self._listen = _coerce_address(listen)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.registration_timeout_s = float(registration_timeout_s)
        self.registry: Optional[ClusterRegistry] = None
        self._agent_counter = 0

    # kill_worker under the cluster's own name (deterministic fault injection).
    kill_agent = JournaledTransport.kill_worker

    def _start(self) -> list[Channel]:
        self.registry = ClusterRegistry(
            self._listen,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            registration_timeout_s=self.registration_timeout_s,
        )
        procs: list[subprocess.Popen] = []
        try:
            if self.addresses:
                return [
                    _MemberChannel(self.registry, self.registry.connect(address))
                    for address in self.addresses
                ]
            # Launch every agent before waiting for any: they boot in parallel.
            if self._spawn:
                for _ in range(self.max_workers):
                    procs.append(self._launch_agent())
            members = self.registry.wait_for(
                self.max_workers, timeout=self.registration_timeout_s
            )
        except BaseException:
            # close() does not shut down a transport that never started, so
            # a failed start stops its registry and reaps its agents here.
            self.registry.drain()
            for proc in procs:
                proc.kill()
                proc.wait(timeout=5)
            raise
        by_pid = {proc.pid: proc for proc in procs}
        return [
            _MemberChannel(
                self.registry, member_id, by_pid.get(self.registry.member_pid(member_id))
            )
            for member_id in sorted(members, key=_member_number)[: self.max_workers]
        ]

    def _start_channel(self) -> Optional[Channel]:
        """A freshly spawned loopback agent once it registers; ``None`` when
        this transport does not spawn agents or the new one never registers."""
        if not self._spawn:
            return None
        proc = self._launch_agent()
        deadline = time.monotonic() + self.registration_timeout_s
        while time.monotonic() < deadline and proc.poll() is None:
            for member_id in self.registry.alive_members():
                if self.registry.member_pid(member_id) == proc.pid:
                    return _MemberChannel(self.registry, member_id, proc)
            time.sleep(0.02)
        proc.kill()
        proc.wait(timeout=5)
        return None

    def _launch_agent(self) -> subprocess.Popen:
        """Start one loopback agent process dialing this registry."""
        self._agent_counter += 1
        host, port = self.registry.address
        env = dict(os.environ)
        # Loopback agents mirror multiprocessing spawn: they inherit the
        # coordinator's import paths so task functions pickled by reference
        # (including ones from the driving script's directory) resolve.
        src_root = str(Path(__file__).resolve().parents[2])
        paths = [src_root] + [p for p in sys.path if p]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "node",
                "--connect",
                f"{host}:{port}",
                "--name",
                f"loopback-{self._agent_counter}",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _shutdown(self) -> None:
        # The drain stops every live agent politely; then reap what we spawned.
        self.registry.drain()
        for channel in dict.fromkeys(self._slots):
            channel.discard()

    def health(self) -> dict:
        report = super().health()
        if self.registry is not None:
            cluster = self.registry.health()
            cluster["slots"] = {
                str(slot): channel.name for slot, channel in enumerate(self._slots)
            }
            report["cluster"] = cluster
        return report
