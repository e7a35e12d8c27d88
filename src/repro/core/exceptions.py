"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InfeasibleProblemError(ReproError):
    """Raised when an optimisation problem has an empty feasible region."""


class UnboundedProblemError(ReproError):
    """Raised when an optimisation problem has an unbounded optimum.

    The meta-algorithm requires every sub-problem to have a well defined
    optimum; linear programs are therefore intersected with a bounding box
    (see :class:`repro.problems.linear_program.LinearProgram`).  This error is
    raised when a caller explicitly disables the box and the optimum escapes
    to infinity.
    """


class SolverError(ReproError):
    """Raised when a numerical solver fails to converge or returns garbage."""


class InvalidInstanceError(ReproError):
    """Raised when an input instance violates the promises of a problem.

    Examples: a two-curve-intersection instance whose curves are not monotone
    or not convex, an LP with mismatched coefficient shapes, or an SVM data
    set that is not linearly separable when a hard-margin model is requested.
    """


class InvalidConfigError(ReproError, ValueError):
    """Raised when a :class:`repro.api.config.SolverConfig` is invalid.

    The message always names the offending field (e.g. ``MPCConfig.delta``)
    so that callers of the facade can correct the configuration without
    digging through a driver traceback.  Also raised for configuration keys
    that a model does not support.
    """


class RequestValidationError(ReproError, ValueError):
    """A malformed request payload; ``field`` names the offending field.

    Raised by the problem-family decoders and the server's request parsing;
    the HTTP server answers it with a typed 400 body (``{"error": {"type":
    "invalid_request", "field": ..., "message": ...}}``).
    """

    def __init__(self, message: str, field: str = "") -> None:
        super().__init__(message)
        self.field = field


class RegistryError(ReproError, LookupError):
    """Raised on misuse of the model / problem registry.

    Looking up a name that was never registered (the message lists the
    registered names), or registering the same name twice.
    """


class IterationLimitError(ReproError):
    """Raised when the meta-algorithm exceeds its iteration budget.

    Algorithm 1 terminates within O(nu * r) iterations with high probability;
    an implementation bug or an adversarially chosen random seed could in
    principle exceed that, so all drivers carry an explicit budget and fail
    loudly instead of looping forever.
    """


class CommunicationError(ReproError):
    """Raised on misuse of the communication substrates.

    For instance, sending a message outside of an open round in the
    coordinator model, or exceeding the per-machine memory in the MPC model.
    """


class TransportFailure(CommunicationError):
    """Raised when a transport's execution substrate fails mid-flight.

    Distinguishes *infrastructure* failures (a worker process died, a pipe
    broke, a socket or heartbeat was lost) from the task-level
    :class:`CommunicationError` a worker reports when user code raises.
    Worker channels raise it and the journaled transport catches it: it
    restarts the lost worker or degrades to in-process execution, so no
    ``TransportFailure`` reaches a solve's caller.  It keeps its
    ``transport_failure`` wire form (see :mod:`repro.server.wire`).

    Attributes
    ----------
    retryable:
        ``True`` when the failure is transient: the channels raise it for a
        lost worker, which the transport replaces.
    worker:
        Index of the worker that failed, when known.
    attempts:
        How many recovery attempts were made before giving up (``0`` for a
        first-time failure that was not yet retried).
    """

    def __init__(
        self,
        message: str,
        *,
        retryable: bool = False,
        worker: int | None = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.retryable = bool(retryable)
        self.worker = worker
        self.attempts = int(attempts)


class CircuitOpenError(ReproError):
    """Raised when a circuit breaker refuses work to shed load.

    The service opens a per-model breaker after repeated infrastructure
    failures so that queued tickets are rejected fast (the server maps this
    to a structured 503 with ``Retry-After``) instead of piling onto a
    broken session.

    Attributes
    ----------
    retry_after_s:
        Seconds until the breaker will admit a probe request again.
    model:
        The model whose breaker is open, when known.
    """

    def __init__(
        self, message: str, *, retry_after_s: float = 1.0, model: str = ""
    ) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)
        self.model = str(model)


class ProtocolError(ReproError):
    """Raised when a two-party communication protocol is used incorrectly."""


class SessionError(ReproError):
    """Raised on misuse of the stateful session API.

    Examples: calling :meth:`repro.api.session.Session.resolve_with` before
    any solve established a warm state, warm-restarting a model that does not
    support it (see ``describe_model(name)["session"]``), or feeding an
    ingestion handle after it was finalised.
    """


class BudgetExceededError(ReproError):
    """Raised when a solve exhausts its per-request resource budget.

    Carries the partial resource picture accumulated up to the abort point so
    that service callers can log or bill the truncated request:

    Attributes
    ----------
    reason:
        Which budget currency ran out (``"wall_time"``, ``"iterations"``, or
        ``"communication_bits"``).
    elapsed_s:
        Wall-clock seconds spent when the budget tripped.
    iterations:
        Meta-algorithm iterations completed when the budget tripped.
    communication_bits:
        Measured communication bits moved when the budget tripped.
    usage:
        Partial :class:`~repro.core.result.ResourceUsage` (the currencies the
        budget meter tracks; driver-private currencies are zero).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "",
        elapsed_s: float = 0.0,
        iterations: int = 0,
        communication_bits: int = 0,
        usage: object = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.elapsed_s = float(elapsed_s)
        self.iterations = int(iterations)
        self.communication_bits = int(communication_bits)
        self.usage = usage


class ConfigFieldDroppedWarning(UserWarning):
    """Emitted when seeding a narrower config from a richer one drops fields.

    ``build_config`` carries over the fields shared between the given config
    and the target model's config class; any *non-default* field of the
    source that the target does not understand is silently lost.  This
    warning names those fields so the drop is visible (``compare_models``
    deliberately suppresses it: cross-model seeding is its documented
    contract)."""
