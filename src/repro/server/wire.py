"""Wire codecs of the HTTP front end: problems, budgets, errors, SSE.

The solver results themselves already have a wire form — ``repro-result/1``
via :meth:`~repro.core.result.SolveResult.to_dict` — so this module only
adds what the *request* side needs:

* :func:`encode_problem` / :func:`decode_problem` — problem instances as
  plain-JSON payloads (``{"family": "lp", "c": ..., "a": ..., "b": ...}``),
  read and written by each family's
  :class:`~repro.problems.family.ProblemFamily` descriptor, with errors
  that name the offending field;
* :func:`decode_budget` — :class:`~repro.core.budget.ResourceBudget` from a
  JSON object;
* :func:`error_body` / :func:`exception_to_error` /
  :func:`error_to_exception` — the structured error bodies every non-2xx
  response (and every failed ticket) carries, round-trippable back into the
  library's exception types on the client;
* :func:`sse_event` — one Server-Sent-Events frame.

Numbers are serialised with Python's default JSON behaviour, which emits
the IEEE tokens ``Infinity`` / ``-Infinity`` / ``NaN`` for non-finite
values; ``json.loads`` parses them back, so non-finite margins survive the
HTTP round trip (pinned by the server test suite).
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from ..api.registry import get_family
from ..core.budget import ResourceBudget
from ..core.exceptions import (
    BudgetExceededError,
    CircuitOpenError,
    InfeasibleProblemError,
    InvalidConfigError,
    RegistryError,
    ReproError,
    RequestValidationError,
    SolverError,
    TransportFailure,
    UnboundedProblemError,
)
from ..core.result import ResourceUsage

__all__ = [
    "RequestValidationError",
    "decode_budget",
    "decode_problem",
    "encode_problem",
    "error_body",
    "error_to_exception",
    "exception_to_error",
    "sse_event",
]

# ---------------------------------------------------------------------- #
# Problems
# ---------------------------------------------------------------------- #


def encode_problem(problem: Any) -> dict:
    """The wire payload of one problem instance, written by its class's
    family descriptor; :func:`decode_problem` rebuilds an identical instance."""
    family = getattr(problem, "family", None)
    if family is None:
        raise RequestValidationError(
            f"cannot encode {type(problem).__name__} for the wire: its class "
            "declares no ProblemFamily descriptor",
            field="problem",
        )
    return family.encode(problem)


def decode_problem(payload: Any) -> Any:
    """Rebuild an instance from its wire payload; the ``family`` tag (a wire
    name or alias) selects the descriptor that decodes the other fields."""
    if not isinstance(payload, Mapping):
        raise RequestValidationError(
            f"problem must be a JSON object, got {type(payload).__name__}",
            field="problem",
        )
    try:
        family = get_family(payload.get("family"))
    except RegistryError as exc:
        raise RequestValidationError(str(exc), field="problem.family") from None
    return family.decode(payload)


# ---------------------------------------------------------------------- #
# Budgets
# ---------------------------------------------------------------------- #

_BUDGET_FIELDS = ("wall_time_s", "iterations", "communication_bits")


def decode_budget(payload: Any) -> Optional[ResourceBudget]:
    """A :class:`ResourceBudget` from its JSON object form (``None`` passes)."""
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise RequestValidationError(
            f"budget must be a JSON object, got {type(payload).__name__}",
            field="budget",
        )
    unknown = set(payload) - set(_BUDGET_FIELDS)
    if unknown:
        raise RequestValidationError(
            f"unknown budget field(s) {', '.join(sorted(map(repr, unknown)))}; "
            f"supported: {', '.join(_BUDGET_FIELDS)}",
            field="budget",
        )
    try:
        return ResourceBudget(
            wall_time_s=(
                float(payload["wall_time_s"])
                if payload.get("wall_time_s") is not None
                else None
            ),
            iterations=(
                int(payload["iterations"])
                if payload.get("iterations") is not None
                else None
            ),
            communication_bits=(
                int(payload["communication_bits"])
                if payload.get("communication_bits") is not None
                else None
            ),
        )
    except (InvalidConfigError, TypeError, ValueError) as exc:
        raise RequestValidationError(str(exc), field="budget") from None


# ---------------------------------------------------------------------- #
# Error bodies
# ---------------------------------------------------------------------- #


def error_body(
    error_type: str,
    message: str,
    *,
    retryable: bool = False,
    retry_after: Optional[float] = None,
    **extra: Any,
) -> dict:
    """The structured error body every non-2xx response carries.

    Every body advertises ``retryable`` so clients can distinguish
    transient infrastructure failures (retry the same request) from
    terminal ones without parsing prose; ``retry_after`` (seconds) is
    present when the server can name a sensible backoff, mirroring the
    ``Retry-After`` header on 503s.
    """
    error: dict[str, Any] = {
        "type": error_type,
        "message": message,
        "retryable": bool(retryable),
    }
    if retry_after is not None:
        error["retry_after"] = float(retry_after)
    error.update(extra)
    return {"error": error}


def _usage_to_dict(usage: Any) -> Optional[dict]:
    if not isinstance(usage, ResourceUsage):
        return None
    return {
        name: int(getattr(usage, name))
        for name in ResourceUsage._ADDITIVE_FIELDS + ResourceUsage._PEAK_FIELDS
    }


#: Exception class -> wire error type, for ticket failure payloads.
_EXCEPTION_TYPES = (
    (BudgetExceededError, "budget_exhausted"),
    (InfeasibleProblemError, "infeasible"),
    (UnboundedProblemError, "unbounded"),
    (InvalidConfigError, "invalid_config"),
    (RequestValidationError, "invalid_request"),
    (SolverError, "solver_error"),
)


def exception_to_error(exc: BaseException) -> dict:
    """The error body of one failed ticket.

    :class:`BudgetExceededError` keeps its full partial-usage picture —
    reason, elapsed wall time, iterations, communication bits, and the
    partial :class:`ResourceUsage` — so billing-grade information survives
    the wire.
    """
    if isinstance(exc, BudgetExceededError):
        return error_body(
            "budget_exhausted",
            str(exc),
            reason=exc.reason,
            elapsed_s=exc.elapsed_s,
            iterations=exc.iterations,
            communication_bits=exc.communication_bits,
            usage=_usage_to_dict(exc.usage),
        )
    if isinstance(exc, CircuitOpenError):
        return error_body(
            "circuit_open",
            str(exc),
            retryable=True,
            retry_after=exc.retry_after_s,
            model=exc.model,
        )
    if isinstance(exc, TransportFailure):
        return error_body(
            "transport_failure",
            str(exc),
            retryable=exc.retryable,
            worker=exc.worker,
            attempts=exc.attempts,
        )
    for cls, error_type in _EXCEPTION_TYPES:
        if isinstance(exc, cls):
            return error_body(error_type, str(exc))
    return error_body("internal", f"{type(exc).__name__}: {exc}")


def error_to_exception(body: Mapping[str, Any]) -> ReproError:
    """Rebuild a library exception from an error body (client side)."""
    error = body.get("error", body)
    error_type = error.get("type", "internal")
    message = error.get("message", "unknown server error")
    if error_type == "budget_exhausted":
        usage_payload = error.get("usage")
        usage = (
            ResourceUsage(
                **{
                    k: int(v)
                    for k, v in usage_payload.items()
                    if k
                    in ResourceUsage._ADDITIVE_FIELDS + ResourceUsage._PEAK_FIELDS
                }
            )
            if isinstance(usage_payload, Mapping)
            else None
        )
        return BudgetExceededError(
            message,
            reason=str(error.get("reason", "")),
            elapsed_s=float(error.get("elapsed_s", 0.0)),
            iterations=int(error.get("iterations", 0)),
            communication_bits=int(error.get("communication_bits", 0)),
            usage=usage,
        )
    if error_type == "circuit_open":
        return CircuitOpenError(
            message,
            retry_after_s=float(error.get("retry_after", 1.0)),
            model=str(error.get("model", "")),
        )
    if error_type == "transport_failure":
        return TransportFailure(
            message,
            retryable=bool(error.get("retryable", False)),
            worker=error.get("worker"),
            attempts=int(error.get("attempts", 0)),
        )
    for cls, wire_type in _EXCEPTION_TYPES:
        if wire_type == error_type:
            if cls is RequestValidationError:
                return RequestValidationError(
                    message, field=str(error.get("field", ""))
                )
            return cls(message)
    return ReproError(message)


# ---------------------------------------------------------------------- #
# Server-Sent Events
# ---------------------------------------------------------------------- #


def sse_event(event: str, data: Any, event_id: Optional[int] = None) -> bytes:
    """One SSE frame: optional ``id:``, ``event:`` name, one ``data:`` line.

    The id is the event's absolute index in the ticket's event log, so a
    client that reconnects with ``Last-Event-ID`` resumes exactly where the
    previous stream broke off.
    """
    prefix = f"id: {event_id}\n" if event_id is not None else ""
    return (f"{prefix}event: {event}\n" f"data: {json.dumps(data)}\n\n").encode(
        "utf-8"
    )
