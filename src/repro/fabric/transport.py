"""Transports: where node-local computation runs and how payloads travel.

A :class:`Transport` owns the *execution substrate* of a topology's nodes
(coordinator sites, MPC machines, the stream reader).  Node state lives with
the transport, keyed by ``(session, node_id)``; a topology runs node-local
work by handing the transport a **top-level function** ``fn(state, *args) ->
(state, result)``.  Three implementations:

* :class:`InProcessTransport` — the default simulator: states in a dict,
  tasks run inline in deterministic node order, payloads delivered zero-copy.
* :class:`ProcessPoolTransport` — local worker processes over pipes
  (``spawn`` start method by default, so no inherited state).
* :class:`~repro.cluster.transport.TcpTransport` — node agents over TCP
  sockets, on this host or others.

The last two are configurations of one :class:`JournaledTransport`: nodes
are pinned to ``max_workers`` slots by ``node_id % max_workers``, every slot
is served by a worker running :func:`worker_loop` over its channel, task
functions travel pickled by reference, args and results through their
canonical wire bytes, shared values are kept on the workers for as long as
an owner holds them (so an API session ships its problem once, not once per
solve; the same table of owners decides when a value's shared-memory
segment is unlinked), and a journal lets a lost worker be replaced without
changing a bit.

All run the *same* task functions on the *same* per-node states (RNG
generators ship inside the state, so random streams advance identically),
which is why a solve is bit-identical across transports — the cross-transport
determinism tests pin this.

:func:`resolve_transport` builds a transport from a
:class:`~repro.api.config.TransportConfig`.  With ``reuse_pool=True`` many
solves share one process-wide transport per config: states are namespaced
per session, so concurrent solves (e.g. ``solve_many(max_workers > 1)``)
cannot observe each other.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import pickle
import threading
import traceback
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..core.context import solve_context
from ..core.exceptions import CommunicationError, TransportFailure
from ..resilience.faults import faulted_delivery
from . import shm, wirecodec
from .payload import Payload, decode_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.config import TransportConfig

__all__ = [
    "Channel",
    "SharedRef",
    "Transport",
    "InProcessTransport",
    "JournaledTransport",
    "ProcessPoolTransport",
    "kept_values",
    "new_pin_token",
    "resolve_transport",
    "transport_for",
    "worker_loop",
]

_SESSION_COUNTER = itertools.count()
_PIN_COUNTER = itertools.count()
_KEPT_COUNTER = itertools.count()


def new_session() -> str:
    """A process-unique session key for one solve's node states."""
    return f"s{next(_SESSION_COUNTER)}"


def new_pin_token() -> str:
    """A fresh owner token for a long-lived pin (one per API session).

    The API session installs its token as the solve context's ``shm_pin``
    around each solve: every value a process or TCP transport keeps on its
    workers in scope — and with it the value's shared-memory segment — is
    co-owned by the token while its object lives, so the next solve of the
    same object ships nothing.  ``Session.close()`` releases the token.
    """
    return f"pin{next(_PIN_COUNTER)}"


@dataclass(frozen=True)
class SharedRef:
    """Placeholder for a session-shared object inside a node state dict.

    Large read-only objects every node needs (the problem instance, above
    all) are installed once per session with ``Transport.init_shared`` and
    referenced from node states as ``SharedRef(key)``; the transport resolves
    the reference when the state is installed.  On the process and TCP
    transports the object is shipped once per *worker* instead of once per
    node — for MPC's ``k ~ n^(1-delta)`` machines that removes an
    ``O(k * n)`` pickling and memory blow-up — and kept there across the
    solves of one API session.
    """

    key: str


def _resolve_shared(state: Any, shared: dict, session: str) -> Any:
    """Replace top-level ``SharedRef`` values of a state dict (documented
    contract: references are only resolved at the first nesting level)."""
    if isinstance(state, dict):
        return {
            name: shared[(session, value.key)] if isinstance(value, SharedRef) else value
            for name, value in state.items()
        }
    return state


class Transport:
    """Execution + delivery contract shared by all transports.

    ``fn`` passed to :meth:`run_node` / :meth:`run_nodes` must be a picklable
    top-level function with signature ``fn(state, *args) -> (state, result)``;
    the transport stores the returned state for the next call on that node.

    ``private`` marks a transport owned by a single run: the topology that
    holds it calls :meth:`close` when the run ends (shared pools stay up).
    """

    name = "transport"
    private = False

    #: Fault plan attached directly to this transport (chaos tests that must
    #: reach thread-pool workers, where the solve context's plan does not
    #: travel).  ``None`` means "consult the solve context's plan only".
    _fault_plan = None

    def attach_fault_plan(self, plan) -> None:
        """Attach a :class:`~repro.resilience.faults.FaultPlan` (or ``None``).

        Unlike ``solve_scope(fault_plan=plan)``, an attached plan is
        consulted from *every* thread that uses this transport.
        """
        self._fault_plan = plan

    def _active_plan(self):
        plan = self._fault_plan
        return plan if plan is not None else solve_context().fault_plan

    def health(self) -> dict:
        """Liveness / degradation summary (deepened by journaled transports)."""
        return {"kind": self.name, "supervised": False, "degraded": False}

    def init_shared(self, session: str, key: str, value: Any) -> None:
        """Install one session-shared object (referenced via ``SharedRef``)."""
        raise NotImplementedError

    def init_node(self, session: str, node_id: int, state: Any) -> None:
        """Install the initial state of one node (resolving ``SharedRef``s)."""
        raise NotImplementedError

    def run_nodes(
        self,
        session: str,
        node_ids: Sequence[int],
        fn: Callable[..., Any],
        args_list: Sequence[tuple],
    ) -> list[Any]:
        """Run ``fn`` on every listed node; results in ``node_ids`` order."""
        raise NotImplementedError

    def run_node(self, session: str, node_id: int, fn: Callable[..., Any], *args: Any) -> Any:
        return self.run_nodes(session, [node_id], fn, [args])[0]

    def deliver(self, payload: Payload) -> Payload:
        """The payload as the receiver observes it."""
        raise NotImplementedError

    def release(self, session: str) -> None:
        """Drop every node state of one session."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the transport down (no-op for in-process)."""


class InProcessTransport(Transport):
    """The deterministic, zero-copy default: everything runs inline."""

    name = "inprocess"

    def __init__(self) -> None:
        self._states: dict[tuple[str, int], Any] = {}
        self._shared: dict[tuple[str, str], Any] = {}

    def init_shared(self, session: str, key: str, value: Any) -> None:
        self._shared[(session, key)] = value

    def init_node(self, session: str, node_id: int, state: Any) -> None:
        self._states[(session, node_id)] = _resolve_shared(state, self._shared, session)

    def run_nodes(self, session, node_ids, fn, args_list):
        results = []
        for node_id, args in zip(node_ids, args_list):
            key = (session, node_id)
            state, result = fn(self._states[key], *args)
            self._states[key] = state
            results.append(result)
        return results

    def deliver(self, payload: Payload) -> Payload:
        plan = self._active_plan()
        if plan is not None:
            return faulted_delivery(plan, payload, lambda p: p)
        return payload

    def release(self, session: str) -> None:
        for key in [k for k in self._states if k[0] == session]:
            del self._states[key]
        for key in [k for k in self._shared if k[0] == session]:
            del self._shared[key]


#: The worker loop running in this thread, for :func:`kept_values`.
_WORKER = threading.local()


def kept_values() -> dict:
    """The values the worker loop running in this thread keeps, by reference.

    Empty outside a worker.  Node tasks run inside the loop, so a probe task
    (:mod:`repro.workloads.transport_probe`) can report what its worker holds.
    """
    return dict(getattr(_WORKER, "kept", {}))


def worker_loop(conn) -> None:  # pragma: no cover - runs in a worker process
    """The command loop of every worker: pool processes and node agents.

    ``conn`` is anything with ``send(message)`` and ``recv()``: a
    :mod:`multiprocessing` pipe end in a pool worker, a
    :class:`~repro.cluster.protocol.FrameConnection` in a node agent.  Every
    command gets exactly one reply, ``("ok", body)`` or ``("error", text)``:

    ========================================================  ===================
    command                                                   ``ok`` body
    ========================================================  ===================
    ``("keep", ref, value_bytes)``                            ``None``
    ``("bind", session, key, ref)``                           ``None``
    ``("drop", [ref, ...])``                                  ``None``
    ``("init", session, node_id, state_bytes)``               ``None``
    ``("run", session, [(node_id, fn_bytes, args_bytes)])``   ``[result_bytes]``
    ``("ping",)``                                             ``"pong"``
    ``("release", session)``                                  ``None``
    ``("stop",)``                                             ``None``, then exit
    ========================================================  ===================

    A raising task answers ``("error", traceback)`` and an unknown command
    ``("error", "unknown command ...")``; neither ends the loop, which
    returns on ``stop`` or when the channel closes.  Shared values arrive as
    pickles: ``keep`` holds a value under a reference name until ``drop``,
    and ``bind`` gives a session a kept value, so one value serves many
    sessions and ships once.  A pickled :class:`~repro.fabric.shm.ShippedObject`
    re-attaches the parent's segment, so the worker maps the same physical
    pages; the mapping lives as long as the kept value that attached it —
    a long-lived worker must not accumulate maps of unlinked segments.
    Task functions are cached per pickle (they recur every round); args and
    results travel through the pickle-free frame codec.
    """
    states: dict[tuple[str, int], Any] = {}
    shared: dict[tuple[str, str], Any] = {}
    kept: dict[str, Any] = {}
    fn_cache: dict[bytes, Any] = {}
    kept_segments: dict[str, set[str]] = {}
    _WORKER.kept = kept
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, wirecodec.TruncatedFrameError):
            return
        command = message[0]
        reply: tuple = ("ok", None)
        try:
            if command == "keep":
                _, ref, value_bytes = message
                with shm.track_attachments() as seen:
                    kept[ref] = pickle.loads(value_bytes)
                shm.retain_attachments(seen)
                kept_segments[ref] = seen
            elif command == "bind":
                _, session, key, ref = message
                shared[(session, key)] = kept[ref]
            elif command == "drop":
                _, refs = message
                for ref in refs:
                    kept.pop(ref, None)
                    shm.release_attachments(kept_segments.pop(ref, set()))
            elif command == "init":
                _, session, node_id, state_bytes = message
                states[(session, node_id)] = _resolve_shared(
                    wirecodec.loads(state_bytes), shared, session
                )
            elif command == "run":
                _, session, tasks = message
                results = []
                for node_id, fn_bytes, args_bytes in tasks:
                    fn = fn_cache.get(fn_bytes)
                    if fn is None:
                        fn = fn_cache[fn_bytes] = pickle.loads(fn_bytes)
                    args = wirecodec.loads(args_bytes)
                    key = (session, node_id)
                    state, result = fn(states[key], *args)
                    states[key] = state
                    results.append(wirecodec.dumps(result))
                reply = ("ok", results)
            elif command == "ping":
                reply = ("ok", "pong")
            elif command == "release":
                _, session = message
                for key in [k for k in states if k[0] == session]:
                    del states[key]
                for key in [k for k in shared if k[0] == session]:
                    del shared[key]
            elif command != "stop":
                reply = ("error", f"unknown command {command!r}")
        except BaseException:
            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return
        if command == "stop":
            return


class Channel:
    """One worker behind a slot: a request/reply link plus its process.

    Subclasses provide ``send`` / ``recv`` (raising a retryable
    :class:`TransportFailure` when the worker is lost), ``alive``, ``kill``
    (SIGKILL, for fault injection) and ``discard`` (stop the worker and
    drop the link), and set ``name``, ``number``, ``pid`` and ``lock``.
    ``lock`` pairs every request with its reply; ``number`` orders lock
    acquisition, and a replacement always numbers above the channel it
    replaces.
    """

    name: str
    number: int
    pid: int
    lock: threading.RLock

    def request(self, message: tuple) -> tuple:
        with self.lock:
            self.send(message)
            return self.recv()


class _PipeChannel(Channel):
    """A pool worker: one process running :func:`worker_loop` on a pipe."""

    def __init__(self, context, number: int) -> None:
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(target=worker_loop, args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.number = number
        self.name = f"worker {number}"
        self.pid = self.process.pid
        self.lock = threading.RLock()

    def send(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (OSError, ValueError) as exc:
            raise TransportFailure(
                f"{self.name} is unreachable (died?): {exc!r}", retryable=True
            ) from exc

    def recv(self) -> tuple:
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise TransportFailure(
                f"{self.name} died mid-request: {exc!r}", retryable=True
            ) from exc

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=5)

    def discard(self) -> None:
        with self.lock:
            try:
                self.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()


class _SessionJournal:
    """Everything needed to rebuild one session's worker-side state.

    ``ops`` is the ordered log of bindings and node inits (order matters: a
    ``SharedRef`` is resolved against the bindings installed before the
    init); ``tasks`` maps ``node_id`` to the task triples its worker
    acknowledged since that node's most recent init.
    """

    __slots__ = ("ops", "tasks")

    def __init__(self) -> None:
        self.ops: list[tuple] = []  # ("bind", key, ref) | ("init", node_id, bytes)
        self.tasks: dict[int, list[tuple[int, bytes, bytes]]] = {}


class _Kept:
    """One shared value every worker keeps: its pickle, journaled once, and
    the owners that keep it alive — fabric sessions, and the pins of the
    API sessions that shared it (``pins``, which own it only while its
    object lives).  ``key`` is ``id(value)`` while ``guard`` (a weakref)
    watches the value, ``None`` once it was collected or when it cannot be
    recognised again.  ``ref`` names the value on the workers and owns its
    shared-memory segment, if any."""

    __slots__ = ("ref", "data", "owners", "pins", "key", "guard")

    def __init__(self, ref: str, data: bytes) -> None:
        self.ref = ref
        self.data = data
        self.owners: set[str] = set()
        self.pins: set[str] = set()
        self.key: Optional[int] = None
        self.guard: Optional[weakref.ref] = None

    def own(self, session: str, pin: Optional[str]) -> None:
        """Add a fabric session, and the pin in scope while the value is
        recognised by its object (a pin owns only a live object's value)."""
        self.owners.add(session)
        if pin is not None and self.key is not None:
            self.owners.add(pin)
            self.pins.add(pin)


def _apply(target: InProcessTransport, session: str, ops, triples, kept) -> None:
    """Re-apply journaled ops, then task triples, in-process; ``kept(ref)``
    is a kept value loaded into this process."""
    for kind, key, data in ops:
        if kind == "bind":
            target.init_shared(session, key, kept(data))
        else:
            target.init_node(session, key, wirecodec.loads(data))
    for node_id, fn_bytes, args_bytes in triples:
        target.run_nodes(
            session, [node_id], pickle.loads(fn_bytes), [wirecodec.loads(args_bytes)]
        )


class JournaledTransport(Transport):
    """Node tasks on out-of-process workers, journaled so that losing a
    worker costs latency, never bits.

    Nodes are pinned to slots (``node_id % max_workers``) and every slot is
    served by a :class:`Channel`; subclasses open them (:meth:`_start` at
    start-up, :meth:`_start_channel` for a replacement, ``None`` when the
    kind cannot start one) and stop them (:meth:`_shutdown`).  Everything
    else is written once, here:

    * **Kept values.**  The kept-value table is the one owner registry of
      shared values.  A value is kept on every worker while an owner holds
      it: the fabric session that shipped it, every later session that
      shares the same object, and the pin of each API session in scope
      (the solve context's ``shm_pin``).  The key is the live object
      (``id(value)``, guarded by a weakref), so a later solve of the same
      object sends a reference, not the bytes.  With ``shared_memory`` the
      value's segment is owned by its reference name alone.  A value is
      dropped on the workers, and its segment unlinked, once its owners
      drain: at the release of the last session, at the last pin's release
      (``Session.close()``), at :meth:`close`, or — a pin owns only while
      the object lives — at the next exchange after its object was
      collected.  Without a pin (``repro.solve``, service tickets) a value
      lives exactly as long as its sessions.
    * **Journal.**  Each kept value is journaled once; per session, every
      binding and node init is journaled before it is sent, and each
      worker's task batch when that worker acknowledges it — whatever the
      other workers of the batch answered.  Node states carry their RNGs
      and tasks are pure, so re-applying the journal rebuilds a node's
      state bit for bit.
    * **Recovery ladder.**  A lost worker (pipe EOF, socket loss, heartbeat
      expiry) surfaces as a retryable :class:`TransportFailure`.  Each of
      ``max_restarts`` attempts per failure moves the lost worker's slots to
      a fresh worker where the kind can start one, otherwise to a surviving
      one, and replays the slots' journal onto it — a fresh worker receives
      the kept values first; the unacknowledged tasks are then dispatched
      again.
    * **Degradation.**  When the attempts run out, the transport degrades
      to an :class:`InProcessTransport` rebuilt from the journal, with each
      kept value loaded once, and runs there only what the journal lacks —
      still bit-identical.

    So no :class:`TransportFailure` leaves a journaled transport: every
    worker loss costs restarts or the degradation, never an error.  A task
    that raises inside a live worker is not a transport fault: its
    worker answers with the traceback, which surfaces as a
    :class:`CommunicationError` after every other reply of the batch was
    drained and journaled.  Channel locks are taken in channel-number order
    by every thread, and recovery runs with no channel lock held, so
    concurrent batches on a shared transport cannot deadlock.
    """

    #: Whether ``init_shared`` exports large arrays to shared memory first.
    shared_memory = False

    def __init__(self, max_workers: int, *, max_restarts: int = 3) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.max_restarts = int(max_restarts)
        self._slots: list[Channel] = []
        self._started = False
        self._start_lock = threading.Lock()
        self._closed = False
        self._recover_lock = threading.Lock()
        self.restarts_per_slot = [0] * self.max_workers
        self.total_restarts = 0
        self.degraded = False
        self._fallback: Optional[InProcessTransport] = None
        self._journal: dict[str, _SessionJournal] = {}
        self._journal_lock = threading.Lock()
        # Kept values by reference name, and by object id while a weakref
        # guards the object.  The weakref callbacks only note a collected id
        # (they may fire inside a locked block); the next exchange drains it.
        self._kept: dict[str, _Kept] = {}
        self._by_object: dict[int, _Kept] = {}
        self._collected: list[int] = []
        self._unsent_drops: list[str] = []
        self._fallback_kept: dict[str, Any] = {}
        # Held from a kept-value lookup until its ship completes, so no
        # session binds a value a worker has not received yet.
        self._keep_lock = threading.Lock()
        # pickle.dumps(fn) per (session, fn): task functions are shipped by
        # reference and recur every round, so the dumps is paid once.
        self._fn_cache: dict[tuple[str, Any], bytes] = {}
        self._fn_cache_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Channels (supplied by the subclass)
    # ------------------------------------------------------------------ #

    def _start(self) -> list[Channel]:
        """One channel per slot, at start-up."""
        return [self._start_channel() for _ in range(self.max_workers)]

    def _start_channel(self) -> Optional[Channel]:
        raise NotImplementedError

    def _shutdown(self) -> None:
        raise NotImplementedError

    def _ensure_started(self) -> None:
        if self._started:
            return
        with self._start_lock:
            if self._started:
                return
            if self._closed:
                raise CommunicationError("transport is closed")
            self._slots = self._start()
            self._started = True

    def warm_up(self) -> None:
        """Start the workers now, and return once each has answered a ping.

        Sessions call this at construction so the start-up cost (a fresh
        interpreter plus imports per worker) is paid up front instead of
        inside the first solve's latency.
        """
        self._ensure_started()
        self.ping()

    def _slot_for(self, node_id: int) -> int:
        return int(node_id) % self.max_workers

    # ------------------------------------------------------------------ #
    # Liveness and fault-injection hooks
    # ------------------------------------------------------------------ #

    def worker_pids(self) -> list[int]:
        """The process id behind each slot (memory probes, chaos tests)."""
        self._ensure_started()
        return [channel.pid for channel in self._slots]

    def kill_worker(self, slot: int) -> None:
        """SIGKILL the worker behind one slot (deterministic fault injection)."""
        self._ensure_started()
        self._slots[slot].kill()

    def ping(self) -> list[bool]:
        """Round-trip probe per slot; a lost worker is recovered in passing."""
        if self._fallback is None:
            self._ensure_started()
        alive = []
        for slot in range(self.max_workers):
            try:
                reply = self._request(slot, ("ping",))
            except CommunicationError:
                reply = "lost"
            # None: the slot was recovered in passing, or the transport degraded.
            alive.append(self._fallback is None and reply in ("pong", None))
        return alive

    def health(self) -> dict:
        with self._journal_lock:
            kept_bytes = sum(len(entry.data) for entry in self._kept.values())
            kept_values = len(self._kept)
        return {
            "kind": self.name,
            "supervised": True,
            "degraded": self.degraded,
            "total_restarts": self.total_restarts,
            "kept_values": kept_values,
            "kept_bytes": kept_bytes,
        }

    # ------------------------------------------------------------------ #
    # Journal, recovery ladder, degradation
    # ------------------------------------------------------------------ #

    def _record(self, session: str, op: tuple) -> bool:
        """Journal a binding or init; ``False`` once degraded (the op then
        went straight to the in-process fallback and must not be sent)."""
        with self._journal_lock:
            if self._fallback is not None:
                _apply(self._fallback, session, [op], [], self._loaded)
                return False
            journal = self._journal.setdefault(session, _SessionJournal())
            journal.ops.append(op)
            if op[0] == "init":
                journal.tasks[op[1]] = []  # a re-init resets the node's task log
            return True

    def _record_tasks(self, session: str, triples: list) -> None:
        """Journal the tasks one worker acknowledged.  Once degraded they
        advance the fallback instead, which keeps it level with the results
        the caller is about to return."""
        with self._journal_lock:
            if self._fallback is not None:
                _apply(self._fallback, session, [], triples, self._loaded)
                return
            tasks = self._journal.setdefault(session, _SessionJournal()).tasks
            for triple in triples:
                tasks.setdefault(triple[0], []).append(triple)

    def _loaded(self, ref: str) -> Any:
        """A kept value loaded into this process for the fallback, once
        (journal lock held)."""
        if ref not in self._fallback_kept:
            self._fallback_kept[ref] = pickle.loads(self._kept[ref].data)
        return self._fallback_kept[ref]

    def _keep(self, session: str, value: Any) -> tuple[_Kept, bool]:
        """The kept entry of ``value``, now owned by ``session`` and the pin
        in scope too, and whether it is new (its bytes must still be
        shipped).  A new entry's pickle carries ``value`` itself, or with
        ``shared_memory`` its handle to a segment the entry owns.  Called
        with the keep lock held."""
        pin = solve_context().shm_pin
        with self._journal_lock:
            self._drain_collected()
            entry = self._by_object.get(id(value))
            if entry is not None:
                entry.own(session, pin)
                return entry, False
        ref = f"v{next(_KEPT_COUNTER)}"
        shipped = shm.store().export(value, owner=ref) if self.shared_memory else value
        entry = _Kept(ref, pickle.dumps(shipped))
        collected, key = self._collected, id(value)
        try:
            entry.guard = weakref.ref(value, lambda _ref: collected.append(key))
        except TypeError:
            pass  # never recognised again: it lives as long as its sessions
        with self._journal_lock:
            if entry.guard is not None:
                entry.key = key
                self._by_object[key] = entry
            entry.own(session, pin)
            self._kept[ref] = entry
        return entry, True

    def _disown(self, entry: _Kept, owner: str) -> None:
        """Drop one owner; a drained value is forgotten (journal lock held)."""
        entry.owners.discard(owner)
        entry.pins.discard(owner)
        if not entry.owners:
            self._forget(entry)

    def _forget(self, entry: _Kept) -> None:
        """Take a value out of the journal, queue its drop on the workers and
        unlink its segment (journal lock held)."""
        del self._kept[entry.ref]
        if entry.key is not None:
            del self._by_object[entry.key]
        self._fallback_kept.pop(entry.ref, None)
        self._unsent_drops.append(entry.ref)
        shm.store().release_owner(entry.ref)

    def _drain_collected(self) -> None:
        """End the pins' ownership of every collected object (journal lock
        held); its sessions keep the value until they are released."""
        while self._collected:
            entry = self._by_object.pop(self._collected.pop(), None)
            if entry is not None:
                entry.key = None
                entry.owners -= entry.pins
                entry.pins.clear()
                if not entry.owners:
                    self._forget(entry)

    def _send_drops(self) -> None:
        """Tell every worker to forget the kept values no owner holds (at
        every exchange, so a collected object's value goes at the next)."""
        if not (self._collected or self._unsent_drops):
            return
        with self._journal_lock:
            self._drain_collected()
            refs, self._unsent_drops = self._unsent_drops, []
        if refs and self._started and self._fallback is None:
            for slot in range(self.max_workers):
                try:
                    self._request(slot, ("drop", refs))
                except CommunicationError:
                    pass  # a lost worker holds nothing worth dropping

    def _replay(self, channel: Channel, slots: list[int], *, fresh: bool) -> None:
        """Rebuild ``slots``' node states on ``channel`` from the journal.

        Kept values and bindings went to every worker when they were
        installed, so only a fresh worker needs them again, kept values
        first.  Acknowledged tasks re-run to bring each node to its
        pre-failure state; their results are discarded (they were returned
        to the caller before the failure).
        """
        wanted = set(slots)
        with self._journal_lock:
            kept = list(self._kept.values()) if fresh else []
            snapshot = [
                (
                    session,
                    [
                        op
                        for op in journal.ops
                        if (op[0] == "bind" and fresh)
                        or (op[0] == "init" and self._slot_for(op[1]) in wanted)
                    ],
                    [
                        triple
                        for node_id, triples in journal.tasks.items()
                        if self._slot_for(node_id) in wanted
                        for triple in triples
                    ],
                )
                for session, journal in self._journal.items()
            ]
        for entry in kept:
            self._unwrap(channel, channel.request(("keep", entry.ref, entry.data)))
        for session, ops, triples in snapshot:
            for kind, key, data in ops:
                self._unwrap(channel, channel.request((kind, session, key, data)))
            if triples:
                self._unwrap(channel, channel.request(("run", session, triples)))

    def _recover(self, lost: Channel) -> None:
        """The recovery ladder for every slot ``lost`` served; degrades
        when the attempts run out.

        Runs with no channel lock held (so it may wait for a survivor's).
        """
        with self._recover_lock:
            slots = [slot for slot, channel in enumerate(self._slots) if channel is lost]
            if not slots or self._fallback is not None:
                return  # another thread already recovered these slots
            lost.discard()
            for _ in range(self.max_restarts):
                try:
                    replacement = self._start_channel()
                except OSError:  # pragma: no cover - resource exhaustion
                    replacement = None
                fresh = replacement is not None
                if not fresh:
                    survivors = [c for c in self._slots if c is not lost and c.alive()]
                    if not survivors:
                        break
                    replacement = min(survivors, key=lambda c: c.number)
                try:
                    self._replay(replacement, slots, fresh=fresh)
                except TransportFailure:
                    if fresh:
                        replacement.discard()
                    continue
                except CommunicationError:
                    if fresh:  # not installed in any slot: stop it here
                        replacement.discard()
                    raise
                for slot in slots:
                    self._slots[slot] = replacement
                    self.restarts_per_slot[slot] += 1
                self.total_restarts += 1
                notes = solve_context().recovery
                if notes is not None:
                    notes.restarts += 1
                return
            self._exhausted()

    def _exhausted(self) -> None:
        """Degrade to in-process execution (the recovery lock is held)."""
        fallback = InProcessTransport()
        with self._journal_lock:
            for session, journal in self._journal.items():
                triples = [t for node_tasks in journal.tasks.values() for t in node_tasks]
                _apply(fallback, session, journal.ops, triples, self._loaded)
            self._fallback = fallback
            self.degraded = True
        self._shutdown()
        notes = solve_context().recovery
        if notes is not None:
            notes.degraded = True

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    @staticmethod
    def _unwrap(channel: Channel, reply: tuple) -> Any:
        """A reply's body; an error reply is user code raising, not a fault."""
        status, body = reply
        if status == "error":
            raise CommunicationError(f"{channel.name} failed:\n{body}")
        return body

    def _request(self, slot: int, message: tuple) -> Any:
        """One request with recover-on-failure, for the messages a recovery
        makes unnecessary to re-send (keep / bind / init are journaled
        before they are sent, a released session or dropped value is out of
        the journal, a ping has done its job): ``None`` after a recovery or
        once degraded."""
        if self._fallback is not None:
            return None
        channel = self._slots[slot]
        try:
            reply = channel.request(message)
        except TransportFailure:
            self._recover(channel)
            return None
        return self._unwrap(channel, reply)

    def _fn_bytes(self, session: str, fn: Callable[..., Any]) -> bytes:
        """``pickle.dumps(fn)``, cached per ``(session, fn)``."""
        cache_key = (session, fn)
        cached = self._fn_cache.get(cache_key)
        if cached is None:
            cached = pickle.dumps(fn)  # by reference: fn must be top-level
            with self._fn_cache_lock:
                self._fn_cache[cache_key] = cached
        return cached

    def _dispatch(self, session: str, tasks: list, positions: list, replies: dict) -> list:
        """Ship every worker its tasks among ``positions``, then collect.

        Every batch is sent before any reply is read, so the workers run in
        parallel.  Each acknowledged batch is journaled as its reply
        arrives, and every sent batch's reply is drained even when another
        fails: an unread reply left in a shared worker's channel would hand
        the *next* batch stale results.  Returns the lost channels; raises
        the first task error.
        """
        batches: dict[Channel, list[int]] = {}
        for position in positions:
            channel = self._slots[self._slot_for(tasks[position][0])]
            batches.setdefault(channel, []).append(position)
        channels = sorted(batches, key=lambda c: c.number)
        lost: list[Channel] = []
        errors: list[CommunicationError] = []
        sent: list[Channel] = []
        for channel in channels:
            channel.lock.acquire()
        try:
            for channel in channels:
                try:
                    channel.send(("run", session, [tasks[p] for p in batches[channel]]))
                    sent.append(channel)
                except TransportFailure:
                    lost.append(channel)
            for channel in sent:
                try:
                    body = self._unwrap(channel, channel.recv())
                except TransportFailure:
                    lost.append(channel)
                    continue
                except CommunicationError as exc:
                    errors.append(exc)
                    continue
                batch = batches[channel]
                self._record_tasks(session, [tasks[p] for p in batch])
                replies.update(zip(batch, body))
        finally:
            for channel in channels:
                channel.lock.release()
        if errors:
            raise errors[0]
        return lost

    # ------------------------------------------------------------------ #
    # Transport API
    # ------------------------------------------------------------------ #

    def init_shared(self, session: str, key: str, value: Any) -> None:
        """Give a session one shared object; ship it only to workers that
        do not keep it already.

        The first session to share an object ships its pickle to every
        worker, which keeps it; every later session that shares the same
        live object sends only the reference (see "Kept values" above).
        With ``shared_memory`` the object's large contiguous arrays are
        exported to a POSIX shared-memory segment that the kept value owns;
        the pickle shipped — and journaled — then carries a segment
        *reference*, every worker maps the same physical pages, and a
        replay re-maps them.
        """
        if self._fallback is not None:
            return self._fallback.init_shared(session, key, value)
        self._ensure_started()
        self._send_drops()
        with self._keep_lock:
            entry, new = self._keep(session, value)
            if new:
                for slot in range(self.max_workers):
                    self._request(slot, ("keep", entry.ref, entry.data))
        if self._record(session, ("bind", key, entry.ref)):
            for slot in range(self.max_workers):
                self._request(slot, ("bind", session, key, entry.ref))

    def init_node(self, session: str, node_id: int, state: Any) -> None:
        if self._fallback is not None:
            return self._fallback.init_node(session, node_id, state)
        self._ensure_started()
        self._send_drops()
        state_bytes = wirecodec.dumps(state)
        if self._record(session, ("init", node_id, state_bytes)):
            self._request(self._slot_for(node_id), ("init", session, node_id, state_bytes))

    def run_nodes(self, session, node_ids, fn, args_list):
        if self._fallback is not None:
            return self._fallback.run_nodes(session, node_ids, fn, args_list)
        self._ensure_started()
        self._send_drops()
        plan = self._active_plan()
        if plan is not None:
            for slot in sorted({self._slot_for(node_id) for node_id in node_ids}):
                spec = plan.take("dispatch", node=slot)
                if spec is not None and spec.kind == "worker_crash":
                    self.kill_worker(slot)
        fn_bytes = self._fn_bytes(session, fn)
        tasks = [
            (node_id, fn_bytes, wirecodec.dumps(tuple(args)))
            for node_id, args in zip(node_ids, args_list)
        ]
        replies: dict[int, bytes] = {}
        pending = list(range(len(tasks)))
        for redispatch in itertools.count():
            for channel in self._dispatch(session, tasks, pending, replies):
                self._recover(channel)
            pending = [position for position in pending if position not in replies]
            if not pending or self._fallback is not None:
                break
            if redispatch >= max(1, self.max_restarts):
                # The slots kept losing workers across every dispatch.
                with self._recover_lock:
                    if self._fallback is None:
                        self._exhausted()
                break
        results = {position: wirecodec.loads(body) for position, body in replies.items()}
        if pending:
            # Degraded mid-batch: the fallback holds every acknowledged task,
            # so only the unacknowledged ones run there.
            results.update(
                zip(
                    pending,
                    self._fallback.run_nodes(
                        session,
                        [node_ids[p] for p in pending],
                        fn,
                        [args_list[p] for p in pending],
                    ),
                )
            )
        return [results[position] for position in range(len(tasks))]

    def deliver(self, payload: Payload) -> Payload:
        plan = self._active_plan()
        if plan is not None:
            return faulted_delivery(plan, payload, lambda p: decode_payload(p.to_bytes()))
        return decode_payload(payload.to_bytes())

    def release(self, session: str) -> None:
        """Drop one session's node states and its ownership of kept values.

        ``session`` may also be a pin: ``Session.close()`` releases its own,
        which drops the values only the pin kept.  The segments of drained
        values are unlinked before any worker is asked anything, so an
        unreachable worker cannot keep one alive.  Workers hear of a
        session only if it installed something.
        """
        with self._journal_lock:
            journal = self._journal.pop(session, None)
            for entry in list(self._kept.values()):
                self._disown(entry, session)
        with self._fn_cache_lock:
            for cache_key in [k for k in self._fn_cache if k[0] == session]:
                del self._fn_cache[cache_key]
        if journal is not None and self._started and self._fallback is None:
            for slot in range(self.max_workers):
                try:
                    self._request(slot, ("release", session))
                except CommunicationError:
                    pass  # a lost worker holds no state worth releasing
        if self._fallback is not None:
            self._fallback.release(session)
        self._send_drops()

    def close(self) -> None:
        """Stop the workers and forget every kept value, unlinking their
        segments whatever owners they had left."""
        self._closed = True
        with self._journal_lock:
            for entry in list(self._kept.values()):
                self._forget(entry)
            self._journal.clear()
            self._unsent_drops.clear()
        self._fallback = None
        if self._started:
            self._shutdown()
            self._started = False


class ProcessPoolTransport(JournaledTransport):
    """Node tasks on local worker processes, one per slot, over pipes.

    With ``shared_memory`` (the default, where POSIX shared memory works)
    shared values ship as segment references; otherwise as plain pickles.
    A lost worker is always replaced by a freshly started one.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int = 2,
        start_method: str = "spawn",
        shared_memory: bool = True,
        *,
        max_restarts: int = 3,
    ) -> None:
        super().__init__(max_workers, max_restarts=max_restarts)
        self.start_method = start_method
        # Requested zero-copy shipping degrades silently to the pickle path
        # on platforms without working POSIX shared memory.
        self.shared_memory = bool(shared_memory) and shm.shared_memory_supported()
        self._context = mp.get_context(start_method)
        self._numbers = itertools.count()

    def _start_channel(self) -> Channel:
        return _PipeChannel(self._context, next(self._numbers))

    def _shutdown(self) -> None:
        for channel in dict.fromkeys(self._slots):
            channel.discard()

    def health(self) -> dict:
        live = self._started and not self.degraded
        return {
            **super().health(),
            "workers": [
                {
                    "alive": live and self._slots[slot].alive(),
                    "restarts": self.restarts_per_slot[slot],
                }
                for slot in range(self.max_workers)
            ],
        }


# ---------------------------------------------------------------------- #
# Construction from a TransportConfig, and the shared-transport cache
# ---------------------------------------------------------------------- #

_SHARED: dict["TransportConfig", JournaledTransport] = {}
_SHARED_LOCK = threading.Lock()


def _build(config: "TransportConfig") -> JournaledTransport:
    """A new, unstarted transport honouring every field of ``config``."""
    if config.kind == "process":
        return ProcessPoolTransport(
            config.max_workers,
            config.start_method,
            config.shared_memory,
            max_restarts=config.max_restarts,
        )
    if config.kind == "tcp":
        # Imported lazily: the cluster package builds on this module.
        from ..cluster.transport import TcpTransport

        return TcpTransport(
            config.max_workers,
            listen=config.listen,
            addresses=config.addresses,
            spawn_agents=config.spawn_agents,
            heartbeat_interval_s=config.heartbeat_interval_s,
            heartbeat_timeout_s=config.heartbeat_timeout_s,
            registration_timeout_s=config.registration_timeout_s,
            max_restarts=config.max_restarts,
        )
    raise CommunicationError(f"unknown transport kind {config.kind!r}")


def transport_for(config: "TransportConfig") -> JournaledTransport:
    """The out-of-process transport for a ``process`` or ``tcp`` config.

    ``reuse_pool=True`` (the default) returns the process-wide transport
    cached under the frozen config itself, so start-up is paid once per
    distinct config and every field is honoured; sessions namespace the
    node states, so sharing is invisible to callers.  ``reuse_pool=False``,
    and explicit agent ``addresses`` (external agents are the caller's
    own), yield a new transport marked ``private``: whoever holds it closes
    it.  Shared transports are closed atexit.
    """
    if not config.reuse_pool or config.addresses:
        transport = _build(config)
        transport.private = True
        return transport
    with _SHARED_LOCK:
        transport = _SHARED.get(config)
        if transport is None or transport._closed:
            transport = _SHARED[config] = _build(config)
    return transport


@atexit.register
def _close_shared_transports() -> None:  # pragma: no cover - interpreter shutdown
    with _SHARED_LOCK:
        for transport in _SHARED.values():
            transport.close()
        _SHARED.clear()


def resolve_transport(config: "TransportConfig | None") -> Transport:
    """The transport instance for one solve, from its (optional) config.

    The solve context's ``transport`` wins whenever its kind matches the
    requested one: the session API pins its long-lived transport there, so
    drivers reuse it across solves without widening their signatures.  The
    pinned transport is never marked ``private``, so topologies release
    their node states on ``close()`` but leave the workers running — the
    session tears them down when it exits.  Otherwise ``None`` and
    ``kind="inprocess"`` return a fresh :class:`InProcessTransport`
    (per-solve state isolation is free), and ``"process"`` / ``"tcp"`` go
    through :func:`transport_for`.
    """
    pinned = solve_context().transport
    if pinned is not None:
        requested = "inprocess" if config is None else config.kind
        if requested == pinned.name:
            return pinned
    if config is None or config.kind == "inprocess":
        return InProcessTransport()
    return transport_for(config)
