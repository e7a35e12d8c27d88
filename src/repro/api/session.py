"""Stateful solver sessions: incremental solving and warm-started re-solves.

A :class:`Session` is the long-lived counterpart of the one-shot
:func:`repro.solve` facade.  It owns, across many solves:

* a resolved :class:`~repro.api.registry.ModelSpec` and a frozen, validated
  config (per-call overrides never mutate the session);
* a long-lived **transport**: with ``TransportConfig(kind="process")`` the
  worker pool is spun up once at session creation and reused by every solve
  (one ``ProcessPoolTransport`` instead of per-call pools), which is where
  the heavy-traffic amortisation comes from;
* a **warm state**: the successful-iteration basis witnesses of the previous
  solve — the model-independent form of the Clarkson weight state
  (Section 3.2: the weight of a constraint is ``boost ** #violated-stored-
  bases``) — plus the certified basis, so
  :meth:`Session.resolve_with`\\ ``(added=..., removed=...)`` re-solves an
  edited instance *incrementally*;
* **ingestion handles** (:meth:`Session.ingest`): stream chunks arrive over
  time through ``feed()`` and are assembled into one instance at
  ``finalize()``.  Edits and ingestion read the problem family's
  :class:`~repro.problems.family.ProblemFamily` descriptor.

Warm-restart determinism contract (pinned by ``tests/test_session.py``):
a warm re-solve certifies the **same basis** as a cold solve of the same
edited instance, for every model and transport; ``SolveResult.warm`` records
how much prior state was reused.  Two mechanisms implement it:

* the **fast path** — if the prior optimum still satisfies every constraint
  of the edited instance (one vectorised sweep) and the prior basis
  survived the edit, the basis is re-certified without entering the engine
  loop at all (``warm.fast_path``);
* otherwise the model's registered ``warm_runner`` runs the ordinary
  engine loop with its weight substrate seeded from the carried witnesses,
  typically terminating in far fewer iterations than a cold start.

``repro.solve`` / ``repro.compare_models`` / ``repro.solve_many`` are thin
shims over an *ephemeral* session (one solve, no warm tracking) and remain
bit-identical to their historical behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from ..core.budget import ResourceBudget, start_meter
from ..core.context import solve_scope
from ..core.exceptions import InvalidConfigError, RegistryError, SessionError
from ..core.result import ResourceUsage, SolveResult, WarmStats
from ..resilience.faults import RecoveryNotes
from ..fabric import shm
from ..fabric.transport import (
    ProcessPoolTransport,
    Transport,
    shared_process_transport,
)
from .config import SolverConfig
from .facade import build_config
from .registry import ModelSpec, get_family, get_model

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.lptype import LPTypeProblem
    from .batch import BatchResult

__all__ = [
    "Session",
    "SessionPool",
    "WarmState",
    "IngestHandle",
    "session",
    "extend_problem",
]


# ---------------------------------------------------------------------- #
# Constraint edits: the problem's family descriptor does the work
# ---------------------------------------------------------------------- #


def _as_chunk_list(added: Any) -> list:
    """Normalise the ``added`` argument into a list of constraint blocks.

    An ``ndarray`` or ``tuple`` is one block; a plain ``list`` is a list of
    blocks (ingestion handles feed one block per ``feed()`` call).
    """
    if added is None:
        return []
    if isinstance(added, list):
        return list(added)
    return [added]


def extend_problem(
    problem: "LPTypeProblem",
    added: Any = None,
    removed: Optional[Sequence[int]] = None,
) -> tuple["LPTypeProblem", np.ndarray]:
    """Build the edited instance: ``problem`` minus ``removed`` plus ``added``.

    Returns ``(new_problem, keep)`` where ``keep`` is the ascending array of
    surviving original indices: original constraint ``keep[j]`` becomes
    constraint ``j`` of the new instance, and added blocks are appended
    after the survivors.  ``added`` is one constraint block (or a list of
    blocks), each in the form the problem's
    :class:`~repro.problems.family.ProblemFamily` descriptor reads: a tuple
    with one entry per per-constraint array — ``(rows, rhs)`` for LP/QP,
    ``(points, labels)`` for SVM — or one merged array of their columns —
    ``(m, d+1)`` for LP/QP/SVM, ``(m, d)`` points for MEB.
    """
    n = problem.num_constraints
    keep = np.arange(n, dtype=int)
    if removed is not None:
        removed_idx = np.unique(np.asarray(list(removed), dtype=int))
        if removed_idx.size and (
            removed_idx.min() < 0 or removed_idx.max() >= n
        ):
            raise SessionError(
                f"removed indices must lie in [0, {n}); got "
                f"[{removed_idx.min()}, {removed_idx.max()}]"
            )
        keep = np.setdiff1d(keep, removed_idx)
    family = getattr(problem, "family", None)
    if family is None:
        raise SessionError(
            f"cannot edit constraints of {type(problem).__name__}: its class "
            "declares no ProblemFamily descriptor (the class attribute "
            "`family`), which incremental solving reads"
        )
    new_problem = family.edit(problem, keep, _as_chunk_list(added))
    if new_problem.num_constraints == 0:
        raise SessionError("the edited instance has no constraints")
    return new_problem, keep


# ---------------------------------------------------------------------- #
# Warm state and the session itself
# ---------------------------------------------------------------------- #


@dataclass
class WarmState:
    """The carried state of one session between solves.

    ``witnesses`` are the successful-iteration basis witnesses accumulated
    over the session's solves — the model-independent Clarkson weight state
    (weight of constraint ``i`` = ``boost ** #witnesses i violates``).
    Witnesses are geometric points, so they survive constraint edits
    unchanged.  The list grows by ``O(nu * r)`` per engine re-solve;
    :meth:`Session.reset` clears it.
    """

    witnesses: list = field(default_factory=list, repr=False)
    basis_indices: tuple[int, ...] = ()
    witness: Any = None
    value: Any = None
    solves: int = 0


class IngestHandle:
    """Streaming ingestion: constraint chunks arrive over time.

    Obtained from :meth:`Session.ingest`.  ``feed(chunk)`` buffers one
    constraint block (family-native form, see :func:`extend_problem`);
    ``finalize()`` assembles the instance and — by default — solves it
    through the session, warm-starting from the session's prior state when
    the chunks extend the session's current problem.
    """

    def __init__(
        self,
        session: "Session",
        base: Optional["LPTypeProblem"],
        family: Optional[str],
        static: dict,
    ) -> None:
        self._session = session
        self._base = base
        self._family = family
        self._static = dict(static)
        self._chunks: list = []
        self._finalized = False

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    def feed(self, *chunk: Any) -> "IngestHandle":
        """Buffer one constraint block; returns ``self`` for chaining.

        Pass the block either as one argument (``feed(points)``,
        ``feed((rows, rhs))``) or as the unpacked pair
        (``feed(rows, rhs)`` / ``feed(points, labels)``).
        """
        if self._finalized:
            raise SessionError("ingestion handle is already finalised")
        if not chunk:
            raise SessionError("feed() needs a constraint block")
        self._chunks.append(chunk[0] if len(chunk) == 1 else tuple(chunk))
        return self

    def finalize(
        self,
        solve: bool = True,
        budget: Optional[ResourceBudget] = None,
        **overrides: Any,
    ) -> Any:
        """Assemble the fed chunks and (by default) solve the instance.

        Extending the session's current problem goes through
        :meth:`Session.resolve_with` (warm re-solve); a fresh build goes
        through :meth:`Session.solve`.  With ``solve=False`` the assembled
        problem is returned unsolved (and the session is left untouched).
        """
        if self._finalized:
            raise SessionError("ingestion handle is already finalised")
        self._finalized = True
        if self._base is not None:
            if not solve:
                problem, _ = extend_problem(self._base, added=self._chunks)
                return problem
            return self._session.resolve_with(
                added=self._chunks, budget=budget, **overrides
            )
        if self._family is None:
            raise SessionError(
                "nothing to extend: the session has no current problem; pass "
                "family= (and its static fields) to session.ingest()"
            )
        try:
            family = get_family(self._family)
        except RegistryError as exc:
            raise SessionError(f"unknown ingestion family: {exc}") from None
        problem = family.build(self._chunks, self._static)
        if not solve:
            return problem
        return self._session.solve(problem, budget=budget, **overrides)


class Session:
    """A stateful solver session; see the module docstring.

    Parameters
    ----------
    model:
        Registered model name, as in :func:`repro.solve`.
    config:
        Optional typed configuration, as in :func:`repro.solve`.
    warm_tracking:
        Whether solves record warm state for later :meth:`resolve_with`
        calls.  The one-shot facade shims disable it so they stay
        bit-identical to their historical behaviour (``SolveResult.warm``
        stays ``None``).
    warn_dropped:
        Forwarded to :func:`repro.api.facade.build_config`
        (``compare_models`` passes ``False``: cross-class seeding is its
        contract).
    **overrides:
        Config field overrides, as in :func:`repro.solve`.
    """

    def __init__(
        self,
        model: str = "streaming",
        config: Optional[SolverConfig] = None,
        *,
        warm_tracking: bool = True,
        warn_dropped: bool = True,
        **overrides: Any,
    ) -> None:
        self.spec: ModelSpec = get_model(model)
        self.config: SolverConfig = build_config(
            self.spec, config, overrides, warn_dropped=warn_dropped
        )
        self._warm_tracking = bool(warm_tracking)
        self._closed = False
        self.problem: Optional["LPTypeProblem"] = None
        self.warm: Optional[WarmState] = None
        self._solves = 0

        transport_cfg = getattr(self.config, "transport", None)
        # Session-level validation: an *explicit* session rejects a transport
        # kind the model's driver cannot execute on.  Ephemeral shims
        # (warm_tracking=False: solve/compare_models/solve_many/service)
        # keep the historical leniency — runners that ignore the transport
        # field (the baselines) must keep accepting such configs.
        if (
            self._warm_tracking
            and transport_cfg is not None
            and transport_cfg.kind not in self.spec.transports
        ):
            raise InvalidConfigError(
                f"model {self.spec.name!r} does not run on transport kind "
                f"{transport_cfg.kind!r} (supported: "
                f"{', '.join(self.spec.transports)}); see describe_model()"
            )
        # The long-lived transport: resolved once, reused by every solve of
        # this session.  Worker pools are warmed up eagerly so the spin-up
        # cost sits in session creation, not in the first solve.  Models
        # whose drivers cannot execute on the requested kind (baselines that
        # ignore the transport field) get no pin — spinning up workers no
        # driver will ever talk to would be pure waste.
        self._transport: Optional[Transport] = None
        self._owns_transport = False
        # Shared-memory exports made by this session's solves are co-owned by
        # this token, so the problem's segment outlives the per-solve fabric
        # sessions and is unlinked deterministically at close().  Only
        # long-lived sessions on a process transport need one.
        self._shm_token: Optional[str] = None
        if (
            transport_cfg is not None
            and transport_cfg.kind == "process"
            and "process" in self.spec.transports
        ):
            supervised = bool(getattr(transport_cfg, "supervised", False))
            shared_memory = bool(getattr(transport_cfg, "shared_memory", True))
            if transport_cfg.reuse_pool:
                self._transport = shared_process_transport(
                    transport_cfg.max_workers,
                    transport_cfg.start_method,
                    supervised=supervised,
                    shared_memory=shared_memory,
                )
            else:
                if supervised:
                    from ..resilience.retry import RetryPolicy
                    from ..resilience.supervisor import SupervisedProcessPoolTransport

                    pool: ProcessPoolTransport = SupervisedProcessPoolTransport(
                        max_workers=transport_cfg.max_workers,
                        start_method=transport_cfg.start_method,
                        shared_memory=shared_memory,
                        restart_policy=RetryPolicy(
                            max_attempts=transport_cfg.max_restarts,
                            backoff_s=transport_cfg.restart_backoff_s,
                        ),
                    )
                else:
                    pool = ProcessPoolTransport(
                        max_workers=transport_cfg.max_workers,
                        start_method=transport_cfg.start_method,
                        shared_memory=shared_memory,
                    )
                self._transport = pool
                self._owns_transport = True
            if self._warm_tracking:
                self._shm_token = shm.new_pin_token()
            if self._warm_tracking:
                # Explicit sessions pay spin-up now; ephemeral shims leave
                # shared pools lazy (the first solve starts them, exactly as
                # the one-shot facade always has).
                self._transport.warm_up()
            elif self._owns_transport:
                self._transport.warm_up()
        elif (
            transport_cfg is not None
            and transport_cfg.kind == "tcp"
            and "tcp" in self.spec.transports
        ):
            # Same pinning rules as the process pool, but cluster-backed: no
            # shm pin token (the TCP wire ships plain pickles), and explicit
            # agent addresses always make the cluster session-private.
            from ..cluster.transport import resolve_tcp_transport

            self._transport = resolve_tcp_transport(transport_cfg)
            self._owns_transport = bool(getattr(self._transport, "private", False))
            if self._owns_transport:
                # The session owns teardown now; clear the per-run flag so
                # the topology does not close the cluster after one solve.
                self._transport.private = False
            if self._warm_tracking or self._owns_transport:
                self._transport.warm_up()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """End the session: tear down a session-owned worker pool."""
        if self._closed:
            return
        self._closed = True
        if self._owns_transport and self._transport is not None:
            self._transport.close()
        self._transport = None
        if self._shm_token is not None:
            # Drop this session's pin: shared segments whose owner set
            # drains here are unlinked now, deterministically.
            shm.store().release_owner(self._shm_token)
            self._shm_token = None

    def reset(self) -> None:
        """Drop the warm state (the next solve is cold again)."""
        self.problem = None
        self.warm = None

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def describe(self) -> dict:
        """Introspection snapshot: model, capabilities, carried state."""
        return {
            "model": self.spec.name,
            "config_class": type(self.config).__name__,
            "session": self.spec.session_spec.as_dict(),
            "transport": self._transport.name if self._transport else "inprocess",
            "solves": self._solves,
            "warm_bases": len(self.warm.witnesses) if self.warm else 0,
            "problem_constraints": (
                self.problem.num_constraints if self.problem is not None else None
            ),
        }

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #

    def _config_for(self, overrides: dict) -> SolverConfig:
        if not overrides:
            return self.config
        return build_config(self.spec, self.config, overrides)

    def _execute(
        self,
        problem: "LPTypeProblem",
        config: SolverConfig,
        warm_witnesses: Optional[list],
        budget: Optional[ResourceBudget],
    ) -> SolveResult:
        """One driver run in the session's solve scope.

        The scope pins the session's transport and shared-memory token,
        installs the budget meter, and hands the supervised transport fresh
        :class:`~repro.resilience.faults.RecoveryNotes` to report what it
        did; worker restarts are folded into the result's
        ``transport_retries`` usage counter, and a degradation to in-process
        execution is flagged in the metadata.
        """
        notes = RecoveryNotes()
        with solve_scope(
            transport=self._transport,
            shm_pin=self._shm_token,
            meter=start_meter(budget),
            recovery=notes,
        ):
            if warm_witnesses is not None and self.spec.warm_runner is not None:
                result = self.spec.warm_runner(problem, config, warm_witnesses)
            else:
                result = self.spec.runner(problem, config)
        if notes.restarts:
            result.resources.transport_retries += notes.restarts
        if notes.degraded:
            result.metadata["transport_degraded"] = True
        return result

    def transport_health(self) -> dict:
        """The pinned transport's liveness/degradation summary."""
        if self._transport is None:
            return {"kind": "inprocess", "supervised": False, "degraded": False}
        return self._transport.health()

    def run_cold(
        self,
        problem: "LPTypeProblem",
        config: Optional[SolverConfig] = None,
        budget: Optional[ResourceBudget] = None,
        warm_witnesses: Optional[list] = None,
    ) -> SolveResult:
        """A stateless solve on the session's transport (service/batch path).

        Does not touch the session's problem or warm state, so concurrent
        ``run_cold`` calls (the :class:`~repro.api.service.SolverService`
        worker threads, ``solve_many``) are safe.  ``warm_witnesses`` (for
        models with a warm runner) resumes from checkpointed basis
        witnesses: by the warm==cold determinism contract the resumed solve
        certifies the same basis, value, and witness as an uninterrupted
        run — this is the service's checkpoint-recovery path.
        """
        self._check_open()
        if warm_witnesses is not None and self.spec.warm_runner is None:
            warm_witnesses = None
        return self._execute(problem, config or self.config, warm_witnesses, budget)

    def solve(
        self,
        problem: "LPTypeProblem",
        budget: Optional[ResourceBudget] = None,
        **overrides: Any,
    ) -> SolveResult:
        """Solve ``problem`` and (re)base the session's warm state on it.

        Numerically identical to ``repro.solve(problem, ...)`` with the same
        configuration — the warm state is *recorded*, never consumed, by
        this method.  Use :meth:`resolve_with` to consume it.
        """
        self._check_open()
        config = self._config_for(overrides)
        tracking = self._warm_tracking and self.spec.warm_runner is not None
        result = self._execute(problem, config, [] if tracking else None, budget)
        self._adopt(problem, result)
        return result

    def resolve_with(
        self,
        added: Any = None,
        removed: Optional[Sequence[int]] = None,
        budget: Optional[ResourceBudget] = None,
        **overrides: Any,
    ) -> SolveResult:
        """Warm re-solve of the current problem with constraints edited.

        ``added`` is one constraint block or a list of blocks
        (family-native form, see :func:`extend_problem`); ``removed`` lists
        constraint indices of the *current* problem to drop.  With neither,
        the current instance itself is re-solved warm.  The certified basis
        agrees with a cold solve of the edited instance (the warm-start
        determinism contract); ``result.warm`` records the reuse.
        """
        self._check_open()
        if self.problem is None:
            raise SessionError(
                "resolve_with() needs a prior solve: call session.solve(problem) "
                "first"
            )
        if not self.spec.session_spec.warm_restart:
            raise SessionError(
                f"model {self.spec.name!r} does not support warm restarts "
                "(describe_model(name)['session']['warm_restart'] is False)"
            )
        union, keep = extend_problem(self.problem, added=added, removed=removed)
        warm = self.warm if self.warm is not None else WarmState()

        result = None
        # The fast path returns the *prior* certificate without running the
        # solver, so it only applies when this call changes nothing about
        # how a solve would run: no per-call config overrides, no budget.
        if (
            not overrides
            and budget is None
            and keep.size == self.problem.num_constraints
        ):
            result = self._fast_path(union, warm)
        if result is None:
            config = self._config_for(overrides)
            result = self._execute(union, config, list(warm.witnesses), budget)
        self._adopt(union, result)
        return result

    def _fast_path(
        self, union: "LPTypeProblem", warm: WarmState
    ) -> Optional[SolveResult]:
        """Re-certify the prior optimum with one violation sweep, if possible.

        Only applicable to pure *additions* (no constraint removed): then
        monotonicity gives ``f(union) >= f(old)``, while feasibility of the
        prior witness for every union constraint (the sweep) gives
        ``f(union) <= f(old)`` — so the prior value, witness, and basis
        certify the edited instance as-is.  Removals may genuinely lower the
        optimum, so they always run the (warm) engine.  The sweep is the
        dominant cost: one pass / broadcast round in model terms.
        """
        if warm.witness is None or not warm.basis_indices:
            return None
        if union.violation_mask(warm.witness, union.all_indices()).any():
            return None
        resources = ResourceUsage(oracle_calls=1)
        if "passes" in self.spec.currencies:
            resources.passes = 1
        if "rounds" in self.spec.currencies:
            resources.rounds = 1
        return SolveResult(
            value=warm.value,
            witness=warm.witness,
            basis_indices=tuple(warm.basis_indices),
            iterations=0,
            successful_iterations=0,
            resources=resources,
            metadata={
                "algorithm": "session_warm_fast_path",
                "model": self.spec.name,
            },
            warm=WarmStats(
                warm_start=True,
                fast_path=True,
                reused_bases=len(warm.witnesses),
                new_bases=0,
                witnesses=list(warm.witnesses),
            ),
        )

    def _adopt(self, problem: "LPTypeProblem", result: SolveResult) -> None:
        """Rebase the session's warm state on one finished solve."""
        self._solves += 1
        if not self._warm_tracking:
            return
        self.problem = problem
        if result.warm is not None:
            self.warm = WarmState(
                witnesses=list(result.warm.witnesses),
                basis_indices=tuple(result.basis_indices),
                witness=result.witness,
                value=result.value,
                solves=self._solves,
            )
        else:
            self.warm = None

    # ------------------------------------------------------------------ #
    # Ingestion and batches
    # ------------------------------------------------------------------ #

    def ingest(
        self, family: Optional[str] = None, fresh: bool = False, **static: Any
    ) -> IngestHandle:
        """Open a streaming ingestion handle.

        Without arguments the fed chunks *extend the session's current
        problem* (finalise = warm re-solve).  With ``family=`` (or
        ``fresh=True`` and a family) the chunks build a new instance of that
        family from scratch; ``static`` carries the family's instance-wide
        arrays (``c=`` for LP, ``q_matrix=``/``q_vector=`` for QP) and any of
        its options.  ``family`` is a wire name or alias of a registered
        :class:`~repro.problems.family.ProblemFamily`.
        """
        self._check_open()
        base = None if (fresh or family is not None) else self.problem
        if base is not None and not self.spec.session_spec.warm_restart:
            # Extension finalises through resolve_with, which this model
            # cannot run; without a family to build fresh, the raise below
            # tells the caller to pass one.
            base = None
        if base is None and family is None and self.problem is None:
            raise SessionError(
                "session.ingest() without family= needs a current problem to "
                "extend; pass family='lp'|'meb'|'svm'|'qp' (plus static "
                "fields) to build one from the fed chunks"
            )
        if base is None and family is None:
            if fresh:
                raise SessionError(
                    "fresh ingestion needs a family: pass "
                    "family='lp'|'meb'|'svm'|'qp' (plus static fields)"
                )
            raise SessionError(
                f"model {self.spec.name!r} cannot warm-extend its current "
                "problem; pass family= to ingest a fresh instance"
            )
        return IngestHandle(self, base, family, static)

    def solve_many(
        self,
        problems: Any,
        max_workers: Optional[int] = None,
        root_seed: Optional[int] = None,
        **overrides: Any,
    ) -> "BatchResult":
        """Batch-solve independent instances on this session's transport.

        Same semantics as :func:`repro.solve_many` (per-instance seeds
        derived from one root), but every instance reuses the session's
        worker pool.  The session's warm state is not touched.
        """
        self._check_open()
        from .batch import solve_many as _solve_many

        return _solve_many(
            problems,
            model=self.spec.name,
            max_workers=max_workers,
            root_seed=root_seed,
            session=self,
            **overrides,
        )


class SessionPool:
    """A keyed pool of long-lived sessions, created on first use.

    The HTTP front end keeps one pool keyed by *model name*: the first
    request for a model spins up that model's session (and its pinned
    transport / worker pool) and every later request — from any tenant —
    reuses it, which is where the amortisation comes from.  Any hashable
    key works; pass ``factory`` to control how a key becomes a session
    (the default treats the key as a registered model name).

    Pools are thread-safe: concurrent ``get`` calls for the same key create
    exactly one session.  ``close()`` closes every pooled session; a closed
    pool rejects further ``get`` calls.

    Parameters
    ----------
    config, warm_tracking, **overrides:
        Forwarded to every default-constructed :class:`Session`.
        ``warm_tracking`` defaults to ``False`` because pooled sessions are
        shared across concurrent stateless solves (the service path).
    factory:
        Optional ``key -> Session`` constructor overriding the default.
    """

    def __init__(
        self,
        config: Optional[SolverConfig] = None,
        *,
        warm_tracking: bool = False,
        factory: Optional[Any] = None,
        **overrides: Any,
    ) -> None:
        self._config = config
        self._warm_tracking = bool(warm_tracking)
        self._overrides = dict(overrides)
        self._factory = factory
        self._sessions: dict[Any, Session] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._replacements: dict[Any, int] = {}

    def _build(self, key: Any) -> Session:
        if self._factory is not None:
            return self._factory(key)
        return Session(
            model=str(key),
            config=self._config,
            warm_tracking=self._warm_tracking,
            **self._overrides,
        )

    def get(self, key: Any) -> Session:
        """The session for ``key``, creating it on first use."""
        with self._lock:
            if self._closed:
                raise SessionError("session pool is closed")
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
            # Built under the lock: concurrent first requests for one key
            # must not race two transports into existence.
            created = self._build(key)
            self._sessions[key] = created
            return created

    def keys(self) -> list:
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._sessions

    def discard(self, key: Any) -> None:
        """Close and drop one pooled session (no-op for unknown keys)."""
        with self._lock:
            session_obj = self._sessions.pop(key, None)
        if session_obj is not None:
            session_obj.close()

    def replace(self, key: Any) -> Session:
        """Swap a poisoned session for a fresh one (auto-replacement path).

        The server calls this when a ticket fails with a terminal
        (``retryable=False``) transport failure: the old session — and its
        broken worker pool — is closed and a replacement is built on the
        spot, so the next ticket for this key runs on healthy workers.
        """
        with self._lock:
            if self._closed:
                raise SessionError("session pool is closed")
            session_obj = self._sessions.pop(key, None)
            self._replacements[key] = self._replacements.get(key, 0) + 1
        if session_obj is not None:
            session_obj.close()
        return self.get(key)

    def replacements(self) -> dict:
        """How many times each key's session was replaced."""
        with self._lock:
            return dict(self._replacements)

    def close(self) -> None:
        """Close every pooled session and reject further use."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session_obj in sessions:
            session_obj.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def session(
    model: str = "streaming",
    config: Optional[SolverConfig] = None,
    **overrides: Any,
) -> Session:
    """Open a stateful solver session: ``with repro.session(...) as s: ...``.

    The returned :class:`Session` owns a long-lived transport, carries warm
    state between solves (``s.solve`` ... ``s.resolve_with(added=...)``),
    and accepts streaming ingestion via ``s.ingest()``.  See
    ``docs/sessions.md``.
    """
    return Session(model=model, config=config, **overrides)
