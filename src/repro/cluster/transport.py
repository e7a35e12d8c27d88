"""``TcpTransport`` — the third fabric backend: node tasks over real sockets.

Same contract as the in-process and process-pool transports (states keyed by
``(session, node_id)``, pure ``fn(state, *args) -> (state, result)`` tasks
with state-resident RNGs, payload delivery through canonical wire bytes), so
a solve is bit-identical whichever backend runs it — the cross-transport
grid in ``tests/test_cluster.py`` pins TCP against both.

Topology-side structure: ``max_workers`` node *slots*, nodes pinned
``node_id % max_workers``, each slot mapped to a cluster member (a
:class:`~repro.cluster.agent.NodeAgent` process).  By default the transport
spawns its own loopback agents (``python -m repro node --connect``) so
single-host callers need no agent management; pass ``addresses=`` to attach
``--listen`` agents on other hosts instead (one slot per address, nothing
spawned).

Failure handling reuses the resilience layer wholesale.  Socket loss and
heartbeat expiry surface as retryable
:class:`~repro.core.exceptions.TransportFailure`; every state-changing
message is journaled per session with the supervisor's
:class:`~repro.resilience.supervisor._SessionJournal`, and when a member
dies its slots recover in order of preference:

1. **reassign** to a surviving member — shares were broadcast to every
   member, so only the dead slots' node inits + completed task batches
   replay;
2. **respawn** a loopback agent (when this transport spawned its agents and
   the restart budget allows) and replay shares + the dead slots' journal;
3. **degrade** to a local process pool
   (:class:`~repro.fabric.transport.ProcessPoolTransport`,
   ``shared_memory=False``) rebuilt from *all* journals —
   ``metadata[transport_degraded]`` is set via the ambient recovery notes —
   or raise a terminal ``TransportFailure(retryable=False)`` when
   ``degrade=False``.

Replay re-runs completed batches on the pure task functions, so the
recovered states — RNG streams included — match the pre-failure states
bit for bit; re-running the in-flight batch then yields exactly the results
the dead member would have produced.

No shared-memory shipping over TCP: a ``ShippedObject`` handle references
local pages a remote host cannot map, so ``init_shared`` ships plain
pickles.  Lock ordering: slot locks in ascending slot order, member RPC
locks in ascending member number — a replacement member always numbers
after every existing one, so recovery never acquires a lock that sorts
before locks already held.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .registry import ClusterRegistry, MemberDead
from ..core.context import solve_context
from ..core.exceptions import CommunicationError, TransportFailure
from ..fabric import wirecodec
from ..fabric.payload import Payload, decode_payload
from ..fabric.transport import ProcessPoolTransport, Transport
from ..resilience.faults import faulted_delivery
from ..resilience.supervisor import _SessionJournal

__all__ = ["TcpTransport", "resolve_tcp_transport", "shared_tcp_transport"]


def _member_number(member_id: str) -> int:
    """``"agent-12"`` -> 12 (lock/sort order; robust to odd ids)."""
    try:
        return int(member_id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0


class TcpTransport(Transport):
    """Real multi-host workers behind the fabric's transport contract."""

    name = "tcp"

    def __init__(
        self,
        max_workers: int = 2,
        *,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        addresses: Sequence[Tuple[str, int]] = (),
        spawn_agents: Optional[bool] = None,
        heartbeat_interval_s: float = 0.5,
        heartbeat_timeout_s: float = 2.0,
        registration_timeout_s: float = 30.0,
        max_restarts: int = 3,
        degrade: bool = True,
    ) -> None:
        self.addresses = tuple(tuple(a) for a in addresses)
        if self.addresses:
            max_workers = len(self.addresses)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        # Spawning defaults to "yes unless explicit agents were given".
        self._spawn = bool(spawn_agents) if spawn_agents is not None else not self.addresses
        self._listen = tuple(listen)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.registration_timeout_s = float(registration_timeout_s)
        self.max_restarts = int(max_restarts)
        self.degrade_enabled = bool(degrade)

        self.registry: Optional[ClusterRegistry] = None
        self._slots: List[str] = []  # slot index -> member id
        self._slot_locks: List[threading.RLock] = []
        self._agents: Dict[str, subprocess.Popen] = {}  # member id -> spawned proc
        self._agent_counter = 0
        self._spawn_lock = threading.Lock()
        self._started = False
        self._start_lock = threading.Lock()
        self._closed = False

        self.total_restarts = 0
        self.degraded = False
        self._fallback: Optional[ProcessPoolTransport] = None

        self._journal: Dict[str, _SessionJournal] = {}
        self._journal_lock = threading.Lock()
        self._fn_cache: Dict[Tuple[str, Any], bytes] = {}
        self._fn_cache_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Cluster lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_started(self) -> None:
        if self._started:
            return
        with self._start_lock:
            if self._started:
                return
            if self._closed:
                raise CommunicationError("transport is closed")
            self.registry = ClusterRegistry(
                self._listen,
                heartbeat_interval_s=self.heartbeat_interval_s,
                heartbeat_timeout_s=self.heartbeat_timeout_s,
                registration_timeout_s=self.registration_timeout_s,
            )
            if self.addresses:
                self._slots = [self.registry.connect(addr) for addr in self.addresses]
            else:
                if self._spawn:
                    procs = [self._launch_agent() for _ in range(self.max_workers)]
                else:
                    procs = []
                members = self.registry.wait_for(
                    self.max_workers, timeout=self.registration_timeout_s
                )
                self._slots = sorted(members, key=_member_number)[: self.max_workers]
                by_pid = {proc.pid: proc for proc in procs}
                for member_id in self._slots:
                    proc = by_pid.get(self.registry.member_pid(member_id))
                    if proc is not None:
                        self._agents[member_id] = proc
            self._slot_locks = [threading.RLock() for _ in range(self.max_workers)]
            self._started = True

    def warm_up(self) -> None:
        """Bring the cluster up now (sessions pay agent start-up up front)."""
        self._ensure_started()

    def _launch_agent(self) -> subprocess.Popen:
        """Start one loopback agent process dialing this registry."""
        assert self.registry is not None
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

    def _spawn_replacement(self) -> Optional[str]:
        """Spawn a fresh loopback agent; its member id, or ``None`` on failure."""
        assert self.registry is not None
        with self._spawn_lock:
            before = set(self.registry.alive_members())
            proc = self._launch_agent()
            deadline = time.monotonic() + self.registration_timeout_s
            while time.monotonic() < deadline:
                fresh = set(self.registry.alive_members()) - before
                if fresh:
                    member_id = sorted(fresh, key=_member_number)[-1]
                    self._agents[member_id] = proc
                    return member_id
                if proc.poll() is not None:
                    return None
                time.sleep(0.02)
            proc.kill()
            return None

    # ------------------------------------------------------------------ #
    # Chaos / introspection hooks
    # ------------------------------------------------------------------ #

    def agent_pids(self) -> List[int]:
        """Pid per slot (benchmark memory probes, chaos tests)."""
        self._ensure_started()
        assert self.registry is not None
        return [self.registry.member_pid(member) for member in self._slots]

    def kill_agent(self, slot: int) -> None:
        """SIGKILL the agent behind one slot (deterministic fault injection)."""
        self._ensure_started()
        assert self.registry is not None
        member_id = self._slots[slot]
        proc = self._agents.get(member_id)
        if proc is not None:
            proc.kill()
            proc.wait(timeout=5)
        else:
            os.kill(self.registry.member_pid(member_id), signal.SIGKILL)

    def ping(self) -> List[bool]:
        """Round-trip probe per slot (readiness; heals a dead slot in passing)."""
        if self._fallback is not None:
            return [False] * self.max_workers
        self._ensure_started()
        alive = []
        for slot in range(self.max_workers):
            try:
                reply = self._slot_request(slot, ("ping",))
            except (CommunicationError, TransportFailure):
                alive.append(False)
                continue
            alive.append(reply == "pong" or (reply is None and self._fallback is None))
        return alive

    def health(self) -> dict:
        report = {
            "kind": self.name,
            "supervised": True,
            "degraded": self.degraded,
            "total_restarts": self.total_restarts,
        }
        if self.registry is not None:
            cluster = self.registry.health()
            cluster["slots"] = {
                str(slot): member for slot, member in enumerate(self._slots)
            }
            report["cluster"] = cluster
        return report

    # ------------------------------------------------------------------ #
    # Recovery (caller holds the failing slot's lock)
    # ------------------------------------------------------------------ #

    def _slot_for(self, node_id: int) -> int:
        return int(node_id) % self.max_workers

    def _reap(self, member_id: str) -> None:
        proc = self._agents.pop(member_id, None)
        if proc is not None:
            try:
                proc.kill()
                proc.wait(timeout=5)
            except OSError:  # pragma: no cover - already reaped
                pass

    def _recover_member_locked(self, dead_member: str) -> bool:
        """Replace ``dead_member`` in every slot it held.  True on success,
        False after degrading; raises terminal failure if degrade is off."""
        assert self.registry is not None
        if self._fallback is not None:
            return False
        slots = [s for s, member in enumerate(self._slots) if member == dead_member]
        self.registry.forget(dead_member)
        self._reap(dead_member)
        if not slots:
            return True  # another thread already re-mapped these slots

        survivors = [m for m in self.registry.alive_members() if m in self._slots]
        replacement: Optional[str] = None
        fresh = False
        if survivors:
            replacement = sorted(survivors, key=_member_number)[0]
        elif self._spawn and self.total_restarts < self.max_restarts:
            replacement = self._spawn_replacement()
            fresh = replacement is not None
        if replacement is None:
            if self.degrade_enabled:
                self._degrade()
                return False
            raise TransportFailure(
                f"cluster member {dead_member} died with no surviving member, "
                "no respawn budget, and degradation disabled",
                retryable=False,
                attempts=self.total_restarts,
            )

        for slot in slots:
            self._slots[slot] = replacement
        try:
            self._replay_slots(replacement, slots, include_shares=fresh)
        except (MemberDead, TransportFailure):
            # The replacement died during replay; recurse on *it*.
            return self._recover_member_locked(replacement)
        self.total_restarts += 1
        notes = solve_context().recovery
        if notes is not None:
            notes.restarts += 1
            what = "respawned agent" if fresh else "surviving member"
            notes.note(
                f"member {dead_member} died; slots {slots} reassigned to "
                f"{what} {replacement}"
            )
        return True

    def _replay_slots(self, member_id: str, slots: List[int], *, include_shares: bool) -> None:
        """Re-establish ``slots``' node states on ``member_id`` from journals.

        Shares are broadcast to every member at install time, so reassignment
        to a survivor skips them; a freshly spawned agent needs them all.
        """
        assert self.registry is not None
        slot_set = set(slots)
        with self._journal_lock:
            snapshot = []
            for session, journal in self._journal.items():
                ops = [
                    op
                    for op in journal.ops
                    if (op[0] == "share" and include_shares)
                    or (op[0] == "init" and self._slot_for(op[1]) in slot_set)
                ]
                task_lists = [
                    list(triples)
                    for node_id, triples in journal.tasks.items()
                    if self._slot_for(node_id) in slot_set and triples
                ]
                snapshot.append((session, ops, task_lists))
        for session, ops, task_lists in snapshot:
            for op in ops:
                if op[0] == "share":
                    reply = self.registry.request(member_id, ("share", session, op[1], op[2]))
                else:
                    reply = self.registry.request(member_id, ("init", session, op[1], op[2]))
                self._check_reply(reply)
            for triples in task_lists:
                # Completed tasks re-run to advance the node state to the
                # pre-failure point; results are discarded (already returned).
                self._check_reply(self.registry.request(member_id, ("run", session, triples)))

    def _degrade(self) -> None:
        """Rebuild every session on a local process pool and switch over."""
        fallback = ProcessPoolTransport(max_workers=self.max_workers, shared_memory=False)
        fallback.private = True
        fallback.warm_up()
        with self._journal_lock:
            for session, journal in self._journal.items():
                for op in journal.ops:
                    if op[0] == "share":
                        fallback.init_shared(session, op[1], pickle.loads(op[2]))
                    else:
                        fallback.init_node(session, op[1], wirecodec.loads(op[2]))
                for node_id, triples in journal.tasks.items():
                    for _nid, fn_bytes, args_bytes in triples:
                        fallback.run_nodes(
                            session,
                            [node_id],
                            pickle.loads(fn_bytes),
                            [wirecodec.loads(args_bytes)],
                        )
            self._fallback = fallback
            self.degraded = True
        notes = solve_context().recovery
        if notes is not None:
            notes.degraded = True
            notes.note("cluster unrecoverable: degraded to local process pool")

    # ------------------------------------------------------------------ #
    # RPC helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_reply(reply: Any) -> Any:
        """Unwrap a worker reply; a task-level error is *not* a transport fault."""
        status, body = reply
        if status == "error":
            raise CommunicationError(f"node agent failed:\n{body}")
        return body

    def _slot_request(self, slot: int, message: tuple) -> Any:
        """One journal-covered request with recover-on-failure.

        Only for idempotent-after-replay messages (share / init / release /
        ping): the message is journaled before it is sent, so a successful
        recovery has already re-applied it (``None`` returned then).
        """
        assert self.registry is not None
        with self._slot_locks[slot]:
            member_id = self._slots[slot]
            try:
                return self._check_reply(self.registry.request(member_id, message))
            except MemberDead:
                # Recovery replays the journal, which already holds this
                # (pre-journaled) message — no re-send needed on success.
                self._recover_member_locked(member_id)
                return None

    # ------------------------------------------------------------------ #
    # Transport API
    # ------------------------------------------------------------------ #

    def init_shared(self, session: str, key: str, value: Any) -> None:
        if self._fallback is not None:
            self._fallback.init_shared(session, key, value)
            return
        self._ensure_started()
        # Plain pickle: shm handles reference pages a remote host cannot map.
        value_bytes = pickle.dumps(value)
        with self._journal_lock:
            journal = self._journal.setdefault(session, _SessionJournal())
            journal.ops.append(("share", key, value_bytes))
        # Broadcast to every slot (hence every distinct member) so any later
        # slot reassignment finds the session's shares already resident.  On
        # mid-loop degrade the fallback was rebuilt from the journal, which
        # already holds this share.
        for slot in range(self.max_workers):
            if self._fallback is not None:
                return
            self._slot_request(slot, ("share", session, key, value_bytes))

    def init_node(self, session: str, node_id: int, state: Any) -> None:
        if self._fallback is not None:
            self._fallback.init_node(session, node_id, state)
            return
        self._ensure_started()
        state_bytes = wirecodec.dumps(state)
        with self._journal_lock:
            journal = self._journal.setdefault(session, _SessionJournal())
            journal.ops.append(("init", node_id, state_bytes))
            journal.tasks[node_id] = []  # a re-init resets the task log
        # On failure-and-degrade the fallback was rebuilt from the journal,
        # which already holds this (pre-journaled) init.
        self._slot_request(self._slot_for(node_id), ("init", session, node_id, state_bytes))

    def _fn_bytes(self, session: str, fn) -> bytes:
        cache_key = (session, fn)
        cached = self._fn_cache.get(cache_key)
        if cached is None:
            cached = pickle.dumps(fn)  # by reference: fn must be top-level
            with self._fn_cache_lock:
                self._fn_cache[cache_key] = cached
        return cached

    def run_nodes(self, session, node_ids, fn, args_list):
        if self._fallback is not None:
            return self._fallback.run_nodes(session, node_ids, fn, args_list)
        self._ensure_started()
        assert self.registry is not None
        plan = self._active_plan()
        fn_bytes = self._fn_bytes(session, fn)
        per_slot: Dict[int, List[Tuple[int, bytes, bytes]]] = {}
        order: List[Tuple[int, int]] = []  # (slot, position in its batch)
        for node_id, args in zip(node_ids, args_list):
            slot = self._slot_for(node_id)
            batch = per_slot.setdefault(slot, [])
            order.append((slot, len(batch)))
            batch.append((node_id, fn_bytes, wirecodec.dumps(tuple(args))))
        slots = sorted(per_slot)
        for slot in slots:
            self._slot_locks[slot].acquire()
        try:
            if plan is not None:
                for slot in slots:
                    spec = plan.take("dispatch", node=slot)
                    if spec is not None and spec.kind == "worker_crash":
                        self.kill_agent(slot)
            # Ship every member its batches before collecting any reply so
            # the agents genuinely run in parallel.  Member RPC locks are
            # taken in member-number order; replacement members always
            # number above existing ones, so recovery keeps the order.
            members = sorted({self._slots[s] for s in slots}, key=_member_number)
            for member_id in members:
                self.registry.lock(member_id).acquire()
            acquired = list(members)
            try:
                raw: Dict[int, list] = {}
                failed_slots: List[int] = []
                task_errors: List[CommunicationError] = []
                sent: List[int] = []
                for slot in slots:
                    try:
                        self.registry.post(
                            self._slots[slot], ("run", session, per_slot[slot])
                        )
                        sent.append(slot)
                    except MemberDead:
                        failed_slots.append(slot)
                for slot in sent:
                    try:
                        raw[slot] = self._check_reply(
                            self.registry.take(self._slots[slot])
                        )
                    except MemberDead:
                        failed_slots.append(slot)
                    except CommunicationError as exc:
                        task_errors.append(exc)
                for slot in failed_slots:
                    if self._fallback is not None:
                        break
                    self._rerun_failed_locked(slot, session, per_slot[slot], raw)
                if task_errors:
                    # User code raised inside a live agent: surface it exactly
                    # like the process pool would — no recovery can fix it.
                    raise task_errors[0]
            finally:
                for member_id in acquired:
                    lock = None
                    try:
                        lock = self.registry.lock(member_id)
                    except MemberDead:
                        pass  # forgotten during recovery; nothing to release
                    if lock is not None:
                        lock.release()
            if self._fallback is not None:
                # Unrecoverable mid-batch: the fallback was rebuilt from the
                # journal, which excludes this batch — re-running it all
                # there yields the same results the cluster would have.
                return self._fallback.run_nodes(session, node_ids, fn, args_list)
            self._commit_batch(session, per_slot)
            return [wirecodec.loads(raw[slot][position]) for slot, position in order]
        finally:
            for slot in slots:
                self._slot_locks[slot].release()

    def _rerun_failed_locked(
        self,
        slot: int,
        session: str,
        batch: Sequence[tuple],
        raw: Dict[int, list],
    ) -> None:
        """Recover the slot's dead member, then re-run its (unjournaled) batch.

        The recover step is conditional on the *current* slot member actually
        being dead: when several slots shared the dead member, the first
        slot's recovery already re-mapped the others, and their re-run must
        go straight to the (healthy) replacement.
        """
        assert self.registry is not None
        attempts = 0
        while self._fallback is None:
            member_id = self._slots[slot]
            try:
                raw[slot] = self._check_reply(
                    self.registry.request(member_id, ("run", session, list(batch)))
                )
                return
            except MemberDead as exc:
                attempts += 1
                if attempts > max(1, self.max_restarts):
                    if self.degrade_enabled:
                        self._degrade()
                        return
                    raise TransportFailure(
                        f"slot {slot} kept losing members across {attempts} "
                        "recovered re-runs",
                        retryable=False,
                        worker=slot,
                        attempts=attempts,
                    ) from exc
                if not self._recover_member_locked(member_id):
                    return  # degraded; caller re-runs the whole batch there

    def _commit_batch(self, session: str, per_slot: Dict[int, list]) -> None:
        """Journal a fully-successful batch (the recovery baseline)."""
        with self._journal_lock:
            if self._fallback is not None:
                # Degraded concurrently after this batch completed on the
                # cluster: advance the fallback with the same pure tasks so
                # its states match the results already collected.
                for batch in per_slot.values():
                    for node_id, fn_bytes, args_bytes in batch:
                        self._fallback.run_nodes(
                            session,
                            [node_id],
                            pickle.loads(fn_bytes),
                            [wirecodec.loads(args_bytes)],
                        )
                return
            journal = self._journal.setdefault(session, _SessionJournal())
            for batch in per_slot.values():
                for triple in batch:
                    journal.tasks.setdefault(triple[0], []).append(triple)

    def deliver(self, payload: Payload) -> Payload:
        plan = self._active_plan()
        if plan is not None:
            return faulted_delivery(plan, payload, lambda p: decode_payload(p.to_bytes()))
        return decode_payload(payload.to_bytes())

    def release(self, session: str) -> None:
        with self._journal_lock:
            self._journal.pop(session, None)
        with self._fn_cache_lock:
            for cache_key in [k for k in self._fn_cache if k[0] == session]:
                del self._fn_cache[cache_key]
        if self._fallback is not None:
            self._fallback.release(session)
            return
        if not self._started:
            return
        for slot in range(self.max_workers):
            if self._fallback is not None:
                self._fallback.release(session)
                return
            try:
                self._slot_request(slot, ("release", session))
            except (CommunicationError, TransportFailure):
                pass  # a dead member holds no state worth releasing

    def close(self) -> None:
        self._closed = True
        with self._journal_lock:
            self._journal.clear()
        if self._fallback is not None:
            self._fallback.close()
            self._fallback = None
        if not self._started:
            return
        if self.registry is not None:
            self.registry.drain()
        for member_id in list(self._agents):
            proc = self._agents.pop(member_id)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                proc.kill()
                proc.wait(timeout=5)
        self._slots = []
        self._slot_locks = []
        self._started = False


# ---------------------------------------------------------------------- #
# Shared cluster + config resolution
# ---------------------------------------------------------------------- #

_SHARED_CLUSTERS: Dict[tuple, TcpTransport] = {}
_SHARED_CLUSTERS_LOCK = threading.Lock()


def shared_tcp_transport(
    max_workers: int = 2,
    *,
    heartbeat_interval_s: float = 0.5,
    heartbeat_timeout_s: float = 2.0,
) -> TcpTransport:
    """A process-wide loopback cluster shared by every solve that asks for
    these knobs — agent start-up (a fresh interpreter per agent) is paid once
    per ``(max_workers, heartbeat)`` tuple, and sessions namespace node
    states, so sharing is invisible to callers.  Closed atexit."""
    key = (int(max_workers), float(heartbeat_interval_s), float(heartbeat_timeout_s))
    with _SHARED_CLUSTERS_LOCK:
        cluster = _SHARED_CLUSTERS.get(key)
        if cluster is None or cluster._closed:
            cluster = TcpTransport(
                max_workers=max_workers,
                heartbeat_interval_s=heartbeat_interval_s,
                heartbeat_timeout_s=heartbeat_timeout_s,
            )
            _SHARED_CLUSTERS[key] = cluster
    return cluster


@atexit.register
def _close_shared_clusters() -> None:  # pragma: no cover - interpreter shutdown
    with _SHARED_CLUSTERS_LOCK:
        for cluster in _SHARED_CLUSTERS.values():
            cluster.close()
        _SHARED_CLUSTERS.clear()


def resolve_tcp_transport(config) -> TcpTransport:
    """The TCP transport for one solve, from its ``TransportConfig``.

    Explicit ``addresses`` always yield a dedicated (``private``) transport —
    external agents are the caller's own.  Otherwise ``reuse_pool=True`` (the
    default) returns the shared loopback cluster and ``reuse_pool=False`` a
    dedicated one, mirroring the process-pool rules.
    """
    addresses = tuple(getattr(config, "addresses", ()) or ())
    knobs = dict(
        heartbeat_interval_s=getattr(config, "heartbeat_interval_s", 0.5),
        heartbeat_timeout_s=getattr(config, "heartbeat_timeout_s", 2.0),
    )
    listen = _coerce_address(getattr(config, "listen", "127.0.0.1:0"))
    if addresses:
        transport = TcpTransport(
            listen=listen,
            addresses=[_coerce_address(a) for a in addresses],
            spawn_agents=getattr(config, "spawn_agents", None),
            registration_timeout_s=getattr(config, "registration_timeout_s", 30.0),
            max_restarts=getattr(config, "max_restarts", 3),
            **knobs,
        )
        transport.private = True
        return transport
    if getattr(config, "reuse_pool", True):
        return shared_tcp_transport(config.max_workers, **knobs)
    transport = TcpTransport(
        max_workers=config.max_workers,
        listen=listen,
        registration_timeout_s=getattr(config, "registration_timeout_s", 30.0),
        max_restarts=getattr(config, "max_restarts", 3),
        **knobs,
    )
    transport.private = True
    return transport


def _coerce_address(value) -> Tuple[str, int]:
    if isinstance(value, str):
        from .protocol import parse_address

        return parse_address(value)
    host, port = value
    return str(host), int(port)
