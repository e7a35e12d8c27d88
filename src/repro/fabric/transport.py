"""Transports: where node-local computation runs and how payloads travel.

A :class:`Transport` owns the *execution substrate* of a topology's nodes
(coordinator sites, MPC machines, the stream reader).  Node state lives with
the transport, keyed by ``(session, node_id)``; a topology runs node-local
work by handing the transport a **top-level function** ``fn(state, *args) ->
(state, result)``.  Two implementations:

* :class:`InProcessTransport` — the default simulator: states in a dict,
  tasks run inline in deterministic node order, payloads delivered zero-copy.
* :class:`ProcessPoolTransport` — real OS processes: a fixed pool of worker
  processes (``spawn`` start method by default, so no inherited state), node
  states pinned to workers by ``node_id % workers``, task functions pickled
  by reference, and payloads delivered through their canonical wire bytes.

Both run the *same* task functions on the *same* per-node states (RNG
generators ship inside the state, so random streams advance identically),
which is why a solve is bit-identical across transports — the cross-transport
determinism tests pin this.

A module-level shared process pool (:func:`shared_process_transport`) lets
many solves reuse the same workers: states are namespaced per session, so
concurrent solves (e.g. ``solve_many(max_workers > 1)``) cannot observe each
other.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import pickle
import threading
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..core.context import solve_context
from ..core.exceptions import CommunicationError, TransportFailure
from ..resilience.faults import faulted_delivery
from . import shm, wirecodec
from .payload import Payload, decode_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.config import TransportConfig

__all__ = [
    "SharedRef",
    "Transport",
    "InProcessTransport",
    "ProcessPoolTransport",
    "resolve_transport",
    "shared_process_transport",
]

_SESSION_COUNTER = itertools.count()


def new_session() -> str:
    """A process-unique session key for one solve's node states."""
    return f"s{next(_SESSION_COUNTER)}"


@dataclass(frozen=True)
class SharedRef:
    """Placeholder for a session-shared object inside a node state dict.

    Large read-only objects every node needs (the problem instance, above
    all) are installed once per session with ``Transport.init_shared`` and
    referenced from node states as ``SharedRef(key)``; the transport resolves
    the reference when the state is installed.  On the process transport the
    object is shipped once per *worker* instead of once per node — for MPC's
    ``k ~ n^(1-delta)`` machines that removes an ``O(k * n)`` pickling and
    memory blow-up.
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
        """Liveness / degradation summary (deepened by supervised pools)."""
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


def _worker_main(conn) -> None:  # pragma: no cover - runs in a child process
    """Worker loop: hold node states, apply task functions, reply with results.

    Shared values arrive as ordinary pickles; a pickled
    :class:`~repro.fabric.shm.ShippedObject` transparently re-attaches the
    parent's shared segment, so the worker maps the same physical pages
    instead of holding a private copy.  Which segments each session pulled
    in is tracked so ``release`` can drop the mappings again — a long-lived
    pool must not accumulate maps of unlinked segments across solves.
    Task functions are cached per pickle (they are shipped by reference and
    recur every round); args/results travel through the pickle-free frame
    codec.
    """
    states: dict[tuple[str, int], Any] = {}
    shared: dict[tuple[str, str], Any] = {}
    fn_cache: dict[bytes, Any] = {}
    session_segments: dict[str, set[str]] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        command = message[0]
        if command == "stop":
            return
        try:
            if command == "share":
                _, session, key, value_bytes = message
                with shm.track_attachments() as seen:
                    shared[(session, key)] = pickle.loads(value_bytes)
                if seen:
                    known = session_segments.setdefault(session, set())
                    fresh = seen - known
                    if fresh:
                        shm.retain_attachments(fresh)
                        known.update(fresh)
                conn.send(("ok", None))
            elif command == "init":
                _, session, node_id, state_bytes = message
                states[(session, node_id)] = _resolve_shared(
                    wirecodec.loads(state_bytes), shared, session
                )
                conn.send(("ok", None))
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
                conn.send(("ok", results))
            elif command == "ping":
                conn.send(("ok", "pong"))
            elif command == "release":
                _, session = message
                for key in [k for k in states if k[0] == session]:
                    del states[key]
                for key in [k for k in shared if k[0] == session]:
                    del shared[key]
                names = session_segments.pop(session, None)
                if names:
                    shm.release_attachments(names)
                conn.send(("ok", None))
            else:
                conn.send(("error", f"unknown command {command!r}"))
        except BaseException:
            conn.send(("error", traceback.format_exc()))


class ProcessPoolTransport(Transport):
    """Real multiprocess workers for coordinator sites and MPC machines.

    Nodes are pinned to workers (``node_id % max_workers``) so a node's state
    stays on one worker for the whole session; the state — including the
    node's private RNG, derived from the run's root seed via
    ``SeedSequence.spawn`` — is shipped once at init and then lives worker
    side.  Payload delivery round-trips the canonical wire bytes, so the
    receiver observes exactly what a remote peer would.

    Per-worker locks make the transport safe under the thread-pool batch
    layer: two threads' sessions interleave at message granularity but each
    session's task order (and therefore its RNG consumption) is fixed by its
    own thread, keeping batches deterministic.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int = 2,
        start_method: str = "spawn",
        shared_memory: bool = True,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.start_method = start_method
        # Requested zero-copy shipping degrades silently to the pickle path
        # on platforms without working POSIX shared memory.
        self.shared_memory = bool(shared_memory) and shm.shared_memory_supported()
        self._context = mp.get_context(start_method)
        self._workers: list[tuple[Any, Any]] = []  # (process, connection)
        self._locks: list[threading.Lock] = []
        self._started = False
        self._start_lock = threading.Lock()
        self._closed = False
        # pickle.dumps(fn) per (session, fn): task functions are shipped by
        # reference and recur every round, so the dumps is paid once.
        self._fn_cache: dict[tuple[str, Any], bytes] = {}
        self._fn_cache_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_started(self) -> None:
        if self._started:
            return
        with self._start_lock:
            if self._started:
                return
            if self._closed:
                raise CommunicationError("transport is closed")
            for _ in range(self.max_workers):
                parent_conn, child_conn = self._context.Pipe()
                process = self._context.Process(
                    target=_worker_main, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                self._workers.append((process, parent_conn))
                self._locks.append(threading.Lock())
            self._started = True

    def warm_up(self) -> None:
        """Start the worker processes now.

        Sessions call this at construction so the (substantial, under
        ``spawn``) interpreter start-up cost is paid once up front instead of
        inside the first solve's latency.
        """
        self._ensure_started()

    def _worker_for(self, node_id: int) -> int:
        return int(node_id) % self.max_workers

    def _send(self, worker: int, message: tuple) -> None:
        _, conn = self._workers[worker]
        try:
            conn.send(message)
        except (OSError, BrokenPipeError, ValueError) as exc:
            # Pipe-level failure: the worker process is gone or wedged.  This
            # is an *infrastructure* fault (retryable — a supervised pool can
            # restart the worker), unlike the task-level error reply below.
            raise TransportFailure(
                f"worker {worker} is unreachable (died?): {exc!r}",
                retryable=True,
                worker=worker,
            ) from exc

    def _recv(self, worker: int) -> Any:
        _, conn = self._workers[worker]
        try:
            status, body = conn.recv()
        except (EOFError, OSError) as exc:
            raise TransportFailure(
                f"worker {worker} died mid-request: {exc!r}",
                retryable=True,
                worker=worker,
            ) from exc
        if status == "error":
            # The worker is alive and replied: user task code raised.  Not a
            # transport fault — restarting workers cannot fix it.
            raise CommunicationError(f"worker {worker} failed:\n{body}")
        return body

    def _request(self, worker: int, message: tuple) -> Any:
        with self._locks[worker]:
            self._send(worker, message)
            return self._recv(worker)

    # ------------------------------------------------------------------ #
    # Wire encoding helpers
    # ------------------------------------------------------------------ #

    def _fn_bytes(self, session: str, fn: Callable[..., Any]) -> bytes:
        """``pickle.dumps(fn)``, cached per ``(session, fn)``."""
        cache_key = (session, fn)
        cached = self._fn_cache.get(cache_key)
        if cached is None:
            cached = pickle.dumps(fn)  # by reference: fn must be top-level
            with self._fn_cache_lock:
                self._fn_cache[cache_key] = cached
        return cached

    def _release_caches(self, session: str) -> None:
        """Drop per-session wire caches and this session's shm ownership."""
        with self._fn_cache_lock:
            for cache_key in [k for k in self._fn_cache if k[0] == session]:
                del self._fn_cache[cache_key]
        shm.store().release_owner(session)

    # ------------------------------------------------------------------ #
    # Transport API
    # ------------------------------------------------------------------ #

    def init_shared(self, session: str, key: str, value: Any) -> None:
        """Ship one session-shared object to every worker, once each.

        With ``shared_memory`` enabled the object's large contiguous arrays
        are exported to a POSIX shared-memory segment owned by this session
        (plus any ambient pin, e.g. the API session's lifetime token); the
        pickle shipped below then carries a segment *reference* instead of
        the array bytes, and every worker maps the same physical pages.
        """
        self._ensure_started()
        if self.shared_memory:
            value = shm.store().export(value, owner=session)
        value_bytes = pickle.dumps(value)
        for worker in range(self.max_workers):
            self._request(worker, ("share", session, key, value_bytes))

    def init_node(self, session: str, node_id: int, state: Any) -> None:
        self._ensure_started()
        self._request(
            self._worker_for(node_id),
            ("init", session, node_id, wirecodec.dumps(state)),
        )

    def run_nodes(self, session, node_ids, fn, args_list):
        self._ensure_started()
        fn_bytes = self._fn_bytes(session, fn)
        per_worker: dict[int, list[tuple[int, bytes, bytes]]] = {}
        order: list[tuple[int, int]] = []  # (worker, position in its batch)
        for node_id, args in zip(node_ids, args_list):
            worker = self._worker_for(node_id)
            batch = per_worker.setdefault(worker, [])
            order.append((worker, len(batch)))
            batch.append((node_id, fn_bytes, wirecodec.dumps(tuple(args))))
        # Ship every worker its batch before collecting any reply, so the
        # workers genuinely run in parallel.  Locks are taken in sorted
        # worker order — every thread uses the same order, so two concurrent
        # batches cannot deadlock on each other's workers.  On failure the
        # reply of every worker that was sent a batch is still drained:
        # leaving an unread reply in a (shared!) worker's pipe would hand the
        # *next* batch this batch's stale results.
        workers = sorted(per_worker)
        raw: dict[int, list[bytes]] = {}
        errors: list[CommunicationError] = []
        sent: list[int] = []
        for worker in workers:
            self._locks[worker].acquire()
        try:
            for worker in workers:
                try:
                    self._send(worker, ("run", session, per_worker[worker]))
                    sent.append(worker)
                except CommunicationError as exc:
                    errors.append(exc)
            for worker in sent:
                try:
                    raw[worker] = self._recv(worker)
                except CommunicationError as exc:
                    errors.append(exc)
        finally:
            for worker in workers:
                self._locks[worker].release()
        if errors:
            raise errors[0]
        return [wirecodec.loads(raw[worker][position]) for worker, position in order]

    def deliver(self, payload: Payload) -> Payload:
        plan = self._active_plan()
        if plan is not None:
            return faulted_delivery(
                plan, payload, lambda p: decode_payload(p.to_bytes())
            )
        return decode_payload(payload.to_bytes())

    def release(self, session: str) -> None:
        try:
            if self._started:
                for worker in range(self.max_workers):
                    self._request(worker, ("release", session))
        finally:
            # Even if a worker is unreachable, the session's shm ownership
            # must drain — a crashed worker cannot keep a segment pinned.
            self._release_caches(session)

    def close(self) -> None:
        self._closed = True
        if not self._started:
            return
        for (process, conn), lock in zip(self._workers, self._locks):
            with lock:
                try:
                    conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
                conn.close()
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        self._workers.clear()
        self._locks.clear()
        self._started = False


_SHARED_POOLS: dict[tuple[int, str, bool, bool], ProcessPoolTransport] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def shared_process_transport(
    max_workers: int = 2,
    start_method: str = "spawn",
    supervised: bool = False,
    shared_memory: bool = True,
) -> ProcessPoolTransport:
    """A process-wide pool shared by every solve that asks for these knobs.

    Worker start-up (a fresh interpreter plus imports under ``spawn``) is paid
    once per ``(max_workers, start_method, supervised, shared_memory)`` tuple
    instead of once per solve; sessions namespace the node states, so sharing
    is invisible to callers.  ``supervised=True`` returns a
    :class:`~repro.resilience.supervisor.SupervisedProcessPoolTransport`
    (crash detection, bounded restart, journal replay) instead of the bare
    pool.  The pools are closed atexit.
    """
    key = (int(max_workers), start_method, bool(supervised), bool(shared_memory))
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(key)
        if pool is None:
            if supervised:
                # Imported lazily: the supervisor module subclasses
                # ProcessPoolTransport, so a top-level import would cycle.
                from ..resilience.supervisor import SupervisedProcessPoolTransport

                pool = SupervisedProcessPoolTransport(
                    max_workers=max_workers,
                    start_method=start_method,
                    shared_memory=shared_memory,
                )
            else:
                pool = ProcessPoolTransport(
                    max_workers=max_workers,
                    start_method=start_method,
                    shared_memory=shared_memory,
                )
            _SHARED_POOLS[key] = pool
    return pool


@atexit.register
def _close_shared_pools() -> None:  # pragma: no cover - interpreter shutdown
    with _SHARED_POOLS_LOCK:
        for pool in _SHARED_POOLS.values():
            pool.close()
        _SHARED_POOLS.clear()


def resolve_transport(config: "TransportConfig | None") -> Transport:
    """The transport instance for one solve, from its (optional) config.

    The solve context's ``transport`` wins whenever its kind matches the
    requested one: the session API pins its long-lived worker pool there,
    so drivers reuse it across solves without widening their signatures.
    The pinned transport is never marked ``private``, so topologies release
    their node states on ``close()`` but leave the workers running — the
    session tears the pool down when it exits.  Otherwise ``None`` and
    ``kind="inprocess"`` return a fresh :class:`InProcessTransport`
    (per-solve state isolation is free); ``kind="process"`` returns the
    shared pool by default, or a dedicated pool when ``config.reuse_pool``
    is false — the dedicated pool is marked ``private`` so the owning
    topology tears it down when the run ends.
    """
    pinned = solve_context().transport
    if pinned is not None:
        requested = "inprocess" if config is None else config.kind
        if requested == pinned.name:
            return pinned
    if config is None or config.kind == "inprocess":
        return InProcessTransport()
    if config.kind == "process":
        supervised = bool(getattr(config, "supervised", False))
        shared_memory = bool(getattr(config, "shared_memory", True))
        if config.reuse_pool:
            return shared_process_transport(
                config.max_workers,
                config.start_method,
                supervised=supervised,
                shared_memory=shared_memory,
            )
        if supervised:
            from ..resilience.supervisor import SupervisedProcessPoolTransport
            from ..resilience.retry import RetryPolicy

            transport: ProcessPoolTransport = SupervisedProcessPoolTransport(
                max_workers=config.max_workers,
                start_method=config.start_method,
                shared_memory=shared_memory,
                restart_policy=RetryPolicy(
                    max_attempts=getattr(config, "max_restarts", 3),
                    backoff_s=getattr(config, "restart_backoff_s", 0.05),
                ),
            )
        else:
            transport = ProcessPoolTransport(
                max_workers=config.max_workers,
                start_method=config.start_method,
                shared_memory=shared_memory,
            )
        transport.private = True
        return transport
    if config.kind == "tcp":
        # Imported lazily: the cluster package builds on this module (and on
        # the resilience supervisor), so a top-level import would cycle.
        from ..cluster.transport import resolve_tcp_transport

        return resolve_tcp_transport(config)
    raise CommunicationError(f"unknown transport kind {config.kind!r}")
