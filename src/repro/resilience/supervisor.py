"""A supervised process-pool transport: crash detection, restart, replay.

:class:`SupervisedProcessPoolTransport` wraps the bare
:class:`~repro.fabric.transport.ProcessPoolTransport` with the fault
tolerance the service path needs:

* **Liveness**: a ``ping`` round-trip per worker (:meth:`ping`) and a
  structured :meth:`health` summary (surfaced by ``/v1/healthz``).
* **Crash detection**: pipe-level failures surface as retryable
  :class:`~repro.core.exceptions.TransportFailure` instead of hangs or raw
  ``BrokenProcessPool``-style errors.
* **Bounded restart**: a dead worker is respawned under an exponential
  backoff + jitter :class:`~repro.resilience.retry.RetryPolicy` (jitter from
  a seeded RNG, so chaos runs stay reproducible).
* **State re-establishment**: every state-changing message is journaled per
  session — shared objects (the ``SharedRef``'d problem), node init states
  (which carry each node's RNG, derived from the run's root
  ``SeedSequence`` path), and every *completed* task batch.  A respawned
  worker replays its journal, which reconstructs exactly the pre-failure
  states; re-running the in-flight batch then yields bit-identical results,
  because task functions are pure state transformers with their randomness
  inside the shipped state.  With shared memory enabled, journaled shares
  are pickled :class:`~repro.fabric.shm.ShippedObject` handles — segment
  *references* — so replay re-maps the original pages instead of holding a
  second copy of the constraint arrays.
* **Graceful degradation**: when the restart budget is exhausted the pool
  degrades to an :class:`~repro.fabric.transport.InProcessTransport` built
  by replaying *all* journals, and the solve continues in-process — still
  bit-identical.  With ``degrade=False`` the transport instead raises a
  terminal (``retryable=False``) failure, which the server treats as a
  poisoned session.

Known caveat: task batches are journaled only after the *whole* batch
succeeded.  A task-level error (user code raising inside a worker) leaves
worker-side states ahead of the journal for that batch — acceptable because
a task error aborts the solve and releases the session anyway.

The transport keeps ``name = "process"`` on purpose: pinning, driver
metadata, and the cross-transport bit-identity contract are unchanged.
"""

from __future__ import annotations

import pickle
import threading
import time
from random import Random
from typing import Any, Optional, Sequence

from ..core.context import solve_context
from ..core.exceptions import CommunicationError, TransportFailure
from ..fabric import shm, wirecodec
from ..fabric.transport import (
    InProcessTransport,
    ProcessPoolTransport,
    _worker_main,
)
from .retry import RetryPolicy

__all__ = ["SupervisedProcessPoolTransport"]


class _SessionJournal:
    """Everything needed to rebuild one session's worker-side state.

    ``ops`` is the ordered log of shares and node inits (order matters:
    a ``SharedRef`` is resolved against the shares installed before the
    init); ``tasks`` maps ``node_id`` to the ordered list of completed task
    triples since that node's most recent init.
    """

    __slots__ = ("ops", "tasks")

    def __init__(self) -> None:
        self.ops: list[tuple] = []  # ("share", key, bytes) | ("init", node_id, bytes)
        self.tasks: dict[int, list[tuple[int, bytes, bytes]]] = {}


class SupervisedProcessPoolTransport(ProcessPoolTransport):
    """A :class:`ProcessPoolTransport` that survives worker crashes."""

    name = "process"  # deliberately identical: same pinning, same metadata

    def __init__(
        self,
        max_workers: int = 2,
        start_method: str = "spawn",
        shared_memory: bool = True,
        *,
        restart_policy: Optional[RetryPolicy] = None,
        degrade: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(
            max_workers=max_workers,
            start_method=start_method,
            shared_memory=shared_memory,
        )
        self.restart_policy = restart_policy or RetryPolicy(
            max_attempts=3, backoff_s=0.02, backoff_factor=2.0, max_backoff_s=0.25
        )
        self.degrade_enabled = bool(degrade)
        self._rng = Random(seed)
        self._journal: dict[str, _SessionJournal] = {}
        self._journal_lock = threading.Lock()
        self.restarts_per_worker = [0] * self.max_workers
        self.total_restarts = 0
        self.degraded = False
        self._fallback: Optional[InProcessTransport] = None

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #

    def ping(self) -> list[bool]:
        """Round-trip probe per worker; a dead worker is healed in passing."""
        if self._fallback is not None:
            return [False] * self.max_workers
        self._ensure_started()
        alive = []
        for worker in range(self.max_workers):
            if self._fallback is not None:
                alive.append(False)
                continue
            try:
                reply = self._supervised_request(worker, ("ping",))
            except CommunicationError:
                alive.append(False)
                continue
            alive.append(reply == "pong" or (reply is None and self._fallback is None))
        return alive

    def health(self) -> dict:
        workers = []
        for index in range(self.max_workers):
            is_alive = False
            if self._started and not self.degraded and index < len(self._workers):
                is_alive = bool(self._workers[index][0].is_alive())
            workers.append(
                {"alive": is_alive, "restarts": self.restarts_per_worker[index]}
            )
        return {
            "kind": self.name,
            "supervised": True,
            "degraded": self.degraded,
            "total_restarts": self.total_restarts,
            "workers": workers,
        }

    def worker_pids(self) -> list[int]:
        """The worker process ids (chaos tests SIGKILL one externally)."""
        self._ensure_started()
        return [process.pid for process, _ in self._workers]

    def kill_worker(self, worker: int) -> None:
        """SIGKILL one worker process (deterministic fault injection)."""
        process, _ = self._workers[worker]
        process.kill()
        process.join(timeout=5)

    # ------------------------------------------------------------------ #
    # Recovery machinery (all helpers assume the worker's lock is held)
    # ------------------------------------------------------------------ #

    def _respawn_locked(self, worker: int) -> None:
        process, conn = self._workers[worker]
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if process.is_alive():
            process.terminate()
            process.join(timeout=2)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=2)
        try:
            parent_conn, child_conn = self._context.Pipe()
            replacement = self._context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            replacement.start()
            child_conn.close()
        except OSError as exc:  # pragma: no cover - resource exhaustion
            raise TransportFailure(
                f"could not respawn worker {worker}: {exc!r}",
                retryable=True,
                worker=worker,
            ) from exc
        self._workers[worker] = (replacement, parent_conn)
        self.restarts_per_worker[worker] += 1
        self.total_restarts += 1
        notes = solve_context().recovery
        if notes is not None:
            notes.restarts += 1
            notes.note(f"worker {worker} restarted (pid {replacement.pid})")

    def _replay_locked(self, worker: int) -> None:
        """Re-establish the respawned worker's share of every session."""
        with self._journal_lock:
            snapshot = []
            for session, journal in self._journal.items():
                task_lists = [
                    list(triples)
                    for node_id, triples in journal.tasks.items()
                    if self._worker_for(node_id) == worker and triples
                ]
                snapshot.append((session, list(journal.ops), task_lists))
        for session, ops, task_lists in snapshot:
            for op in ops:
                if op[0] == "share":
                    self._send(worker, ("share", session, op[1], op[2]))
                    self._recv(worker)
                elif self._worker_for(op[1]) == worker:
                    self._send(worker, ("init", session, op[1], op[2]))
                    self._recv(worker)
            for triples in task_lists:
                # Re-run the completed tasks to advance the node state to the
                # pre-failure point; the results are discarded (they were
                # already returned to the caller before the crash).
                self._send(worker, ("run", session, triples))
                self._recv(worker)

    def _heal_locked(self, worker: int) -> bool:
        """Bounded restart + replay.  True on success, False after degrading.

        Raises a terminal :class:`TransportFailure` when the restart budget
        is exhausted and degradation is disabled.
        """
        policy = self.restart_policy
        last_exc: Optional[BaseException] = None
        for attempt in range(policy.max_attempts):
            time.sleep(policy.delay(attempt, self._rng))
            try:
                self._respawn_locked(worker)
                self._replay_locked(worker)
                return True
            except TransportFailure as exc:  # pragma: no cover - repeat crash
                last_exc = exc
                continue
        if self.degrade_enabled:
            self._degrade_locked()
            return False
        raise TransportFailure(
            f"worker {worker} is unrecoverable after {policy.max_attempts} "
            "restart attempts and degradation is disabled",
            retryable=False,
            worker=worker,
            attempts=policy.max_attempts,
        ) from last_exc

    def _degrade_locked(self) -> None:
        """Fall back to in-process execution, rebuilt from the journals."""
        fallback = InProcessTransport()
        with self._journal_lock:
            for session, journal in self._journal.items():
                for op in journal.ops:
                    if op[0] == "share":
                        # A shm-backed share is a pickled ShippedObject:
                        # loading it attaches the segment *in this process*
                        # and the fallback works over the same shared views.
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
        # Abandon the broken pool: tear the pipes down and terminate what is
        # still alive (joined later by close()).
        for process, conn in self._workers:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            if process.is_alive():
                process.terminate()
        notes = solve_context().recovery
        if notes is not None:
            notes.degraded = True
            notes.note("pool unrecoverable: degraded to in-process fallback")

    def _supervised_request(self, worker: int, message: tuple) -> Any:
        """One request with heal-on-failure.

        Only used for *idempotent-after-replay* messages (share / init /
        release / ping): the message is journaled before it is sent, so a
        successful heal has already re-applied it and the request does not
        need to be re-sent (``None`` is returned in that case).
        """
        with self._locks[worker]:
            try:
                self._send(worker, message)
                return self._recv(worker)
            except TransportFailure:
                self._heal_locked(worker)
                return None

    # ------------------------------------------------------------------ #
    # Transport API
    # ------------------------------------------------------------------ #

    def init_shared(self, session: str, key: str, value: Any) -> None:
        if self._fallback is not None:
            self._fallback.init_shared(session, key, value)
            return
        self._ensure_started()
        if self.shared_memory:
            # The journal then records the pickled ShippedObject — a tiny
            # segment *reference*, not an array copy — and replay after a
            # worker crash re-maps the same shared pages.
            value = shm.store().export(value, owner=session)
        value_bytes = pickle.dumps(value)
        with self._journal_lock:
            journal = self._journal.setdefault(session, _SessionJournal())
            journal.ops.append(("share", key, value_bytes))
        for worker in range(self.max_workers):
            if self._fallback is not None:
                return
            self._supervised_request(worker, ("share", session, key, value_bytes))

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
        self._supervised_request(
            self._worker_for(node_id), ("init", session, node_id, state_bytes)
        )

    def run_nodes(self, session, node_ids, fn, args_list):
        if self._fallback is not None:
            return self._fallback.run_nodes(session, node_ids, fn, args_list)
        self._ensure_started()
        plan = self._active_plan()
        fn_bytes = self._fn_bytes(session, fn)
        per_worker: dict[int, list[tuple[int, bytes, bytes]]] = {}
        order: list[tuple[int, int]] = []
        for node_id, args in zip(node_ids, args_list):
            worker = self._worker_for(node_id)
            batch = per_worker.setdefault(worker, [])
            order.append((worker, len(batch)))
            batch.append((node_id, fn_bytes, wirecodec.dumps(tuple(args))))
        workers = sorted(per_worker)
        for worker in workers:
            self._locks[worker].acquire()
        try:
            if plan is not None:
                for worker in workers:
                    spec = plan.take("dispatch", node=worker)
                    if spec is not None and spec.kind == "worker_crash":
                        self.kill_worker(worker)
            raw: dict[int, list[bytes]] = {}
            infra_failed: list[int] = []
            task_errors: list[CommunicationError] = []
            sent: list[int] = []
            for worker in workers:
                try:
                    self._send(worker, ("run", session, per_worker[worker]))
                    sent.append(worker)
                except TransportFailure:
                    infra_failed.append(worker)
            for worker in sent:
                try:
                    raw[worker] = self._recv(worker)
                except TransportFailure:
                    infra_failed.append(worker)
                except CommunicationError as exc:
                    task_errors.append(exc)
            for worker in infra_failed:
                if self._fallback is not None:
                    break
                self._rerun_failed_locked(worker, session, per_worker[worker], raw)
            if task_errors:
                # User code raised inside a live worker: surface it exactly
                # like the unsupervised pool would.
                raise task_errors[0]
            if self._fallback is not None:
                # Unrecoverable mid-batch: the fallback was rebuilt from the
                # journal, which excludes this batch, so its states are the
                # pre-batch states — re-running the whole batch there yields
                # the same results the healthy pool would have produced.
                return self._fallback.run_nodes(session, node_ids, fn, args_list)
            self._commit_batch_locked(session, per_worker)
            return [wirecodec.loads(raw[worker][position]) for worker, position in order]
        finally:
            for worker in workers:
                self._locks[worker].release()

    def _rerun_failed_locked(
        self,
        worker: int,
        session: str,
        batch: Sequence[tuple],
        raw: dict,
    ) -> None:
        """Heal a crashed worker, then re-run its (unjournaled) batch."""
        rerun_attempts = 0
        while self._fallback is None:
            if not self._heal_locked(worker):
                return  # degraded; caller re-runs the whole batch in-process
            try:
                self._send(worker, ("run", session, list(batch)))
                raw[worker] = self._recv(worker)
                return
            except TransportFailure as exc:
                rerun_attempts += 1
                if rerun_attempts >= max(1, self.restart_policy.max_attempts):
                    if self.degrade_enabled:
                        self._degrade_locked()
                        return
                    raise TransportFailure(
                        f"worker {worker} kept crashing across "
                        f"{rerun_attempts} recovered re-runs",
                        retryable=False,
                        worker=worker,
                        attempts=rerun_attempts,
                    ) from exc

    def _commit_batch_locked(self, session: str, per_worker: dict) -> None:
        """Journal a fully-successful batch (the recovery baseline)."""
        with self._journal_lock:
            if self._fallback is not None:
                # A concurrent thread degraded the pool after this batch
                # completed on it: advance the fallback's states with the
                # same pure tasks so it stays consistent with the results
                # this thread already collected.
                for batch in per_worker.values():
                    for node_id, fn_bytes, args_bytes in batch:
                        self._fallback.run_nodes(
                            session,
                            [node_id],
                            pickle.loads(fn_bytes),
                            [wirecodec.loads(args_bytes)],
                        )
                return
            journal = self._journal.setdefault(session, _SessionJournal())
            for batch in per_worker.values():
                for triple in batch:
                    journal.tasks.setdefault(triple[0], []).append(triple)

    def release(self, session: str) -> None:
        with self._journal_lock:
            self._journal.pop(session, None)
        try:
            if self._fallback is not None:
                self._fallback.release(session)
                return
            if not self._started:
                return
            for worker in range(self.max_workers):
                if self._fallback is not None:
                    self._fallback.release(session)
                    return
                self._supervised_request(worker, ("release", session))
        finally:
            self._release_caches(session)

    def close(self) -> None:
        self._fallback = None
        with self._journal_lock:
            self._journal.clear()
        super().close()
