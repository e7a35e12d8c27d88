"""Typed, validated solver configurations for the :func:`repro.solve` facade.

One frozen :class:`SolverConfig` replaces the per-driver kwarg dialects
(``r=``, ``order=``, ``num_sites=``, ``delta=``, ``rng=``, ...).  Every model
accepts either the base class or its model-specific subclass:

=============  ======================  ==============================================
model          config class            extra fields
=============  ======================  ==============================================
sequential     :class:`SolverConfig`   —
streaming      :class:`StreamingConfig`   ``order``
coordinator    :class:`CoordinatorConfig` ``num_sites``, ``partition``, ``cost_model``
MPC            :class:`MPCConfig`         ``delta``, ``num_machines``, ``partition``,
                                          ``cost_model``
=============  ======================  ==============================================

Validation happens at construction time and raises
:class:`~repro.core.exceptions.InvalidConfigError` naming the offending
field, so a bad value fails before any pass, round, or message is spent.
The drivers read the typed config directly, and
:meth:`SolverConfig.practical` builds the constant-free "practical profile"
used by the examples and benchmarks.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Optional, Sequence

from .. import kernels
from ..core.accounting import BitCostModel
from ..core.exceptions import InvalidConfigError
from ..core.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.lptype import LPTypeProblem

__all__ = [
    "SolverConfig",
    "StreamingConfig",
    "CoordinatorConfig",
    "MPCConfig",
    "TransportConfig",
]

#: Transport kinds understood by :func:`repro.fabric.resolve_transport`.
TRANSPORT_KINDS = ("inprocess", "process", "tcp")

#: Coordinator topologies understood by the coordinator driver.
COORDINATOR_TOPOLOGIES = ("star", "tree")


@dataclass(frozen=True)
class TransportConfig:
    """How a distributed model's nodes execute and exchange payloads.

    Attributes
    ----------
    kind:
        ``"inprocess"`` (deterministic, zero-copy, the default),
        ``"process"`` (real multiprocess workers), or ``"tcp"`` (node
        agents over real sockets — the :mod:`repro.cluster` subsystem).
        Results are bit-identical across all three: node states, including
        per-node RNGs derived via ``SeedSequence.spawn``, live with the
        workers/agents.
    max_workers:
        Worker-process count for the ``"process"`` kind, or node-agent
        count for ``"tcp"`` (``>= 1``); nodes are pinned to workers by
        ``node_id % max_workers``.
    reuse_pool:
        Whether ``"process"`` / ``"tcp"`` solves share one process-wide
        transport per distinct config (start-up cost paid once) or each
        solve owns a private one.  Inside a
        :class:`~repro.api.session.Session` the distinction moves to the
        session: ``reuse_pool=False`` yields a *session-private* transport,
        spun up once at session creation, reused by every solve of the
        session, and torn down by ``Session.close()`` — the amortisation
        the ``session_amortization`` benchmark measures.
    start_method:
        :mod:`multiprocessing` start method for the workers (``"spawn"``
        inherits nothing and behaves identically on every platform).
    max_restarts:
        Recovery attempts per worker failure, for ``"process"`` and
        ``"tcp"`` alike (:class:`~repro.fabric.transport.JournaledTransport`):
        each moves the lost worker's nodes to a fresh worker (or, where none
        can be started, a surviving one) and replays their journal.  When
        they run out the transport degrades to in-process execution; ``0``
        degrades on the first crash.  Results stay bit-identical throughout.
    shared_memory:
        With ``kind="process"``, ship the problem's large constraint arrays
        through POSIX shared-memory segments (zero-copy: every worker maps
        the same pages).  Default on; silently degrades to a plain pickle of
        the shared value on platforms without working shared memory.  Task
        args, states and results travel as marked pickle frames either way.
        Results are bit-identical either way — ``False`` forces the pickle
        path (the cross-transport determinism grid exercises both).  Ignored
        by ``kind="tcp"``: a shared-memory handle references pages a remote
        host cannot map, so the TCP wire always ships plain pickles.
    listen:
        With ``kind="tcp"``, the ``"host:port"`` the coordinator's
        :class:`~repro.cluster.registry.ClusterRegistry` binds for agent
        registrations (port ``0`` picks a free port).
    addresses:
        With ``kind="tcp"``, explicit ``"host:port"`` addresses of node
        agents started with ``python -m repro node --listen``; the registry
        dials them, one node slot per address, and nothing is spawned.
        Empty (the default) means the transport spawns ``max_workers``
        loopback agents itself.
    spawn_agents:
        With ``kind="tcp"``, force (``True``) or forbid (``False``)
        spawning loopback agents; ``None`` (default) spawns exactly when
        ``addresses`` is empty.
    heartbeat_interval_s:
        With ``kind="tcp"``, how often each agent pushes a heartbeat frame.
    heartbeat_timeout_s:
        With ``kind="tcp"``, silence after which a member turns ``suspect``
        (and, after twice this, ``dead`` — triggering journal-replay
        recovery onto a respawned or surviving agent).
    registration_timeout_s:
        With ``kind="tcp"``, how long a joining member may take to complete
        registration (and how long the transport waits for its spawned
        agents at start-up).
    """

    kind: str = "inprocess"
    max_workers: int = 2
    reuse_pool: bool = True
    start_method: str = "spawn"
    max_restarts: int = 3
    shared_memory: bool = True
    listen: str = "127.0.0.1:0"
    addresses: tuple = ()
    spawn_agents: Optional[bool] = None
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 2.0
    registration_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in TRANSPORT_KINDS:
            raise InvalidConfigError(
                f"TransportConfig.kind must be one of {TRANSPORT_KINDS} "
                f"(got {self.kind!r})"
            )
        if self.max_workers < 1:
            raise InvalidConfigError(
                f"TransportConfig.max_workers must be >= 1 (got {self.max_workers!r})"
            )
        if self.start_method not in ("spawn", "fork", "forkserver"):
            raise InvalidConfigError(
                "TransportConfig.start_method must be 'spawn', 'fork', or "
                f"'forkserver' (got {self.start_method!r})"
            )
        if self.max_restarts < 0:
            raise InvalidConfigError(
                f"TransportConfig.max_restarts must be >= 0 (got {self.max_restarts!r})"
            )
        # JSON overrides hand addresses over as a list; the frozen dataclass
        # wants a hashable tuple of "host:port" strings.
        if not isinstance(self.addresses, tuple):
            if not isinstance(self.addresses, (list, Sequence)) or isinstance(
                self.addresses, (str, bytes)
            ):
                raise InvalidConfigError(
                    "TransportConfig.addresses must be a sequence of "
                    f"'host:port' strings (got {self.addresses!r})"
                )
            object.__setattr__(self, "addresses", tuple(self.addresses))
        for address in self.addresses:
            if not isinstance(address, str) or ":" not in address:
                raise InvalidConfigError(
                    "TransportConfig.addresses entries must be 'host:port' "
                    f"strings (got {address!r})"
                )
        if not isinstance(self.listen, str) or ":" not in self.listen:
            raise InvalidConfigError(
                "TransportConfig.listen must be a 'host:port' string "
                f"(got {self.listen!r})"
            )
        for field_name in (
            "heartbeat_interval_s",
            "heartbeat_timeout_s",
            "registration_timeout_s",
        ):
            if not getattr(self, field_name) > 0:
                raise InvalidConfigError(
                    f"TransportConfig.{field_name} must be > 0 "
                    f"(got {getattr(self, field_name)!r})"
                )


def _coerce_transport(config: Any) -> None:
    """Accept a plain mapping for a config's ``transport`` field.

    The CLI's ``--set transport={"kind": "process", "max_restarts": 1}``
    hands the server a JSON object; coercing it here (in each frozen config's
    ``__post_init__``) keeps every entry path — facade kwargs, server
    overrides, ``construct_config`` — accepting either form.
    """
    value = getattr(config, "transport", None)
    if value is None or isinstance(value, TransportConfig):
        return
    if isinstance(value, Mapping):
        known = {f.name for f in fields(TransportConfig)}
        unknown = sorted(set(value) - known)
        if unknown:
            raise InvalidConfigError(
                f"unknown TransportConfig field(s) {unknown} "
                f"(known: {sorted(known)})"
            )
        object.__setattr__(config, "transport", TransportConfig(**dict(value)))
        return
    raise InvalidConfigError(
        f"{type(config).__name__}.transport must be a TransportConfig or a "
        f"mapping of its fields (got {type(value).__name__})"
    )


@dataclass(frozen=True)
class SolverConfig:
    """Model-independent configuration of one meta-algorithm run.

    Attributes
    ----------
    r:
        The pass/round trade-off parameter of Theorems 1-3 (``>= 1``).
        The MPC model derives its own ``r = ceil(1/delta)`` and ignores this
        field.
    seed:
        Randomness: ``None`` (fresh entropy), an integer, a
        :class:`numpy.random.SeedSequence`, or a generator.  The single seed
        controls every random choice of the run.
    keep_trace:
        Whether to record an :class:`~repro.core.result.IterationRecord` per
        iteration (trace verbosity).
    sample_scale:
        Multiplier on the Lemma 2.2 eps-net sample size (``> 0``).
    failure_probability:
        Per-iteration eps-net failure probability (in ``(0, 1)``).
    boost:
        Violator weight multiplier after a successful iteration; ``None``
        uses the paper's ``n^{1/r}``; explicit values must exceed 1.
    max_iterations:
        Hard iteration budget (``>= 1``; ``None`` derives the Lemma 3.3
        bound).
    sample_size:
        Explicit eps-net sample size override (``>= 1``).
    success_threshold:
        Explicit success-test threshold on ``w(V)/w(S)`` (in ``(0, 1)``).
    kernel_backend:
        Kernel backend the run executes on: one of
        :data:`repro.kernels.KNOWN_KERNEL_BACKENDS` (``"numpy"`` or
        ``"fused"``).  ``None`` (default) defers to the
        ``REPRO_KERNEL_BACKEND`` environment variable and then the registry
        default.
    """

    r: int = 2
    seed: SeedLike = None
    keep_trace: bool = True
    sample_scale: float = 1.0
    failure_probability: float = 1.0 / 3.0
    boost: Optional[float] = None
    max_iterations: Optional[int] = None
    sample_size: Optional[int] = None
    success_threshold: Optional[float] = None
    kernel_backend: Optional[str] = None

    def __post_init__(self) -> None:
        self._check(self.r >= 1, "r", "must be >= 1", self.r)
        self._check(self.sample_scale > 0, "sample_scale", "must be > 0", self.sample_scale)
        self._check(
            0.0 < self.failure_probability < 1.0,
            "failure_probability",
            "must lie in (0, 1)",
            self.failure_probability,
        )
        if self.boost is not None:
            self._check(self.boost > 1.0, "boost", "must be > 1", self.boost)
        if self.max_iterations is not None:
            self._check(
                self.max_iterations >= 1, "max_iterations", "must be >= 1", self.max_iterations
            )
        if self.sample_size is not None:
            self._check(self.sample_size >= 1, "sample_size", "must be >= 1", self.sample_size)
        if self.success_threshold is not None:
            self._check(
                0.0 < self.success_threshold < 1.0,
                "success_threshold",
                "must lie in (0, 1)",
                self.success_threshold,
            )
        if self.kernel_backend is not None:
            self._check(
                self.kernel_backend in kernels.KNOWN_KERNEL_BACKENDS,
                "kernel_backend",
                f"must be one of {kernels.KNOWN_KERNEL_BACKENDS}",
                self.kernel_backend,
            )

    def _check(self, condition: bool, field_name: str, message: str, value: Any) -> None:
        """Raise :class:`InvalidConfigError` naming the offending field."""
        if not condition:
            raise InvalidConfigError(
                f"{type(self).__name__}.{field_name} {message} (got {value!r})"
            )

    @classmethod
    def practical(
        cls,
        problem: "LPTypeProblem",
        r: int = 2,
        safety: float = 4.0,
        **overrides: Any,
    ) -> "SolverConfig":
        """The constant-free "practical profile" as a typed config.

        The Lemma 2.2 constants put the sub-linear sampling regime out of
        reach below ~10^7 constraints.  This profile keeps the paper's
        scaling but uses Clarkson's random-sampling bound instead: success
        threshold ``eps = min(0.45, ln(n) / (2 nu r n^{1/r}))``, still small
        enough for the Lemma 3.3 bound of ``O(nu r)`` successful iterations,
        and sample size ``m = min(n, ceil(safety * nu / eps) + nu)``, whose
        expected violator weight fraction is at most ``nu / (m - nu)``.
        Extra keyword arguments become fields of the returned config
        (``seed=0``, ...); model-specific keys require calling ``practical``
        on that model's config class
        (``CoordinatorConfig.practical(problem, num_sites=8)``).
        """
        if r < 1:
            raise InvalidConfigError(f"{cls.__name__}.r must be >= 1 (got {r!r})")
        n = problem.num_constraints
        nu = problem.combinatorial_dimension
        epsilon = math.log(max(3, n)) / (2.0 * nu * r * n ** (1.0 / r))
        epsilon = min(0.45, epsilon)
        sample_size = int(math.ceil(safety * nu / epsilon)) + nu
        base: dict[str, Any] = dict(
            r=r,
            keep_trace=bool(overrides.pop("keep_trace", True)),
            sample_size=min(sample_size, n),
            success_threshold=epsilon,
        )
        base.update(overrides)
        return construct_config(cls, base)


@dataclass(frozen=True)
class StreamingConfig(SolverConfig):
    """Multi-pass streaming configuration (Theorem 1).

    Attributes
    ----------
    order:
        Optional arrival order of the constraints (default: natural order).
    transport:
        Optional :class:`TransportConfig`; with ``kind="process"`` the
        stream reader runs its passes in a worker process.
    """

    order: Optional[Sequence[int]] = None
    transport: Optional[TransportConfig] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _coerce_transport(self)


@dataclass(frozen=True)
class CoordinatorConfig(SolverConfig):
    """Coordinator-model configuration (Theorem 2).

    Attributes
    ----------
    num_sites:
        Number of sites ``k`` (``>= 1``; ignored if ``partition`` is given).
    partition:
        Optional explicit partition of the constraint indices over the sites.
    cost_model:
        Bit-cost model for the communication accounting (``None``: default
        :class:`BitCostModel`).
    topology:
        ``"star"`` (the classic coordinator model, one round per exchange)
        or ``"tree"`` (sites aggregate through a ``fanout``-ary tree:
        ``ceil(log_fanout k)`` times more rounds, but the coordinator's
        per-round load shrinks from ``k * b`` to ``O(b)`` on combinable
        gathers).
    fanout:
        Arity of the aggregation tree (``>= 2``; only used by ``"tree"``).
    transport:
        Optional :class:`TransportConfig`; with ``kind="process"`` the sites
        run as real worker processes.
    """

    num_sites: int = 4
    partition: Optional[Sequence[Any]] = None
    cost_model: Optional[BitCostModel] = None
    topology: str = "star"
    fanout: int = 2
    transport: Optional[TransportConfig] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check(self.num_sites >= 1, "num_sites", "must be >= 1", self.num_sites)
        self._check(
            self.topology in COORDINATOR_TOPOLOGIES,
            "topology",
            f"must be one of {COORDINATOR_TOPOLOGIES}",
            self.topology,
        )
        self._check(self.fanout >= 2, "fanout", "must be >= 2", self.fanout)
        _coerce_transport(self)


@dataclass(frozen=True)
class MPCConfig(SolverConfig):
    """MPC configuration (Theorem 3).

    Attributes
    ----------
    delta:
        Load exponent in ``(0, 1)``: per-machine load ``O~(n^delta)``,
        ``r = ceil(1/delta)`` iterations (the inherited ``r`` field is
        ignored by this model).
    num_machines:
        Number of machines (``>= 1``; default ``ceil(n^(1-delta))``).
    partition:
        Optional explicit partition of the constraint indices over machines.
    cost_model:
        Bit-cost model for the load accounting.
    transport:
        Optional :class:`TransportConfig`; with ``kind="process"`` the
        machines run as real worker processes.
    """

    delta: float = 0.5
    num_machines: Optional[int] = None
    partition: Optional[Sequence[Any]] = None
    cost_model: Optional[BitCostModel] = None
    transport: Optional[TransportConfig] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check(0.0 < self.delta < 1.0, "delta", "must lie in (0, 1)", self.delta)
        if self.num_machines is not None:
            self._check(
                self.num_machines >= 1, "num_machines", "must be >= 1", self.num_machines
            )
        _coerce_transport(self)


def construct_config(cls: type, values: dict[str, Any]) -> SolverConfig:
    """Instantiate ``cls(**values)``, turning unknown keys into a clear error.

    Shared by the facade, the batch layer, and ``SolverConfig.practical`` so
    that a typo'd configuration key always produces an
    :class:`InvalidConfigError` naming the key and listing the supported
    keys for the config class at hand.
    """
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise InvalidConfigError(
            f"unknown config key(s) {', '.join(map(repr, unknown))} for "
            f"{cls.__name__}; supported keys: {', '.join(sorted(known))}"
        )
    return cls(**values)
