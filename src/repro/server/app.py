"""The HTTP/SSE solver front end: a network face for :class:`SolverService`.

:class:`ReproServer` wraps a :class:`~repro.api.session.SessionPool` (one
long-lived session per model) and one :class:`~repro.api.service.SolverService`
per model behind a stdlib ``ThreadingHTTPServer``.  Endpoints (all JSON):

* ``POST /v1/solve`` — submit a problem; answers ``202`` with a ticket id.
* ``GET /v1/tickets/<id>`` — poll status; a finished ticket carries the
  full ``repro-result/1`` payload (or a structured error body).
* ``GET /v1/tickets/<id>/events`` — SSE stream of the ticket's per-round
  progress: the engine's per-iteration events and the fabric's per-round
  ledger entries, fed through a per-ticket event queue, ending with a
  terminal ``done`` / ``failed`` event.
* ``GET /v1/models`` — registry introspection (``describe_model`` per model).
* ``GET /v1/usage`` — the requesting tenant's cumulative usage and quota.
* ``GET /v1/healthz`` — liveness plus aggregate service stats.

Multi-tenancy rides on the ``X-API-Key`` header (see
:mod:`repro.server.tenancy`): admission control rejects over-quota tenants
with ``429`` and a structured error body, and every finished ticket is
billed to its tenant through a :class:`~repro.core.accounting.UsageLedger`
(optionally appended as JSONL).  See ``docs/service.md``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Optional
from urllib.parse import parse_qs, urlparse

from ..api.registry import available_models, describe_model, get_model
from ..api.service import SolverService, Ticket
from ..api.session import SessionPool
from ..core.accounting import UsageLedger
from ..core.exceptions import (
    BudgetExceededError,
    CircuitOpenError,
    InvalidConfigError,
    InvalidInstanceError,
    RegistryError,
    SessionError,
)
from .tenancy import (
    API_KEY_HEADER,
    AuthenticationError,
    QuotaExceededError,
    Tenant,
    TenantRegistry,
    admit,
)
from .wire import (
    RequestValidationError,
    decode_budget,
    decode_problem,
    error_body,
    exception_to_error,
    sse_event,
)

__all__ = ["ReproServer"]

#: Largest accepted request body, in bytes (constraint arrays are the bulk).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Ticket states that end an SSE stream.
_TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})


class _HTTPError(Exception):
    """An error response: status code plus a structured JSON body."""

    def __init__(self, status: int, body: dict, headers: Optional[dict] = None):
        super().__init__(body.get("error", {}).get("message", ""))
        self.status = status
        self.body = body
        self.headers = dict(headers or {})


class _TicketRecord:
    """Server-side state of one ticket: the service ticket plus its event queue."""

    def __init__(self, rid: str, tenant: str, model: str) -> None:
        self.id = rid
        self.tenant = tenant
        self.model = model
        self.ticket: Optional[Ticket] = None
        self.events: list[dict] = []
        self.cond = threading.Condition()
        self.terminal = False

    def append(self, event: dict) -> None:
        """Queue one event for SSE consumers (any thread)."""
        with self.cond:
            self.events.append(event)
            if event.get("event") in _TERMINAL_EVENTS:
                self.terminal = True
            self.cond.notify_all()


def _json_safe(obj: Any) -> Any:
    """Defensive JSON coercion for introspection payloads (/v1/models)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return repr(obj)


class ReproServer:
    """The served solver: sessions, services, tenancy, and HTTP in one box.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (tests).  The resolved
        address is available as :attr:`url` after construction.
    model:
        Default model for requests that do not name one.
    max_workers:
        Worker-thread count of each per-model :class:`SolverService`.
    config, **overrides:
        Base solver configuration shared by every model's session, as in
        :func:`repro.solve`.
    tenants:
        ``{api_key: Tenant | {"tenant": name, ...quota fields}}`` (see
        :meth:`TenantRegistry.from_config`), or a ready
        :class:`TenantRegistry`.
    allow_anonymous:
        Whether unauthenticated requests run as the shared ``public``
        tenant.  Defaults to ``True`` when no tenants are configured.
    usage_log:
        Optional path; every finished ticket is appended as one JSON line.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        model: str = "streaming",
        max_workers: int = 2,
        config: Any = None,
        tenants: Any = None,
        allow_anonymous: Optional[bool] = None,
        usage_log: Any = None,
        verbose: bool = False,
        **overrides: Any,
    ) -> None:
        get_model(model)  # fail fast on an unknown default model
        self.default_model = model
        self.max_workers = int(max_workers)
        self.verbose = bool(verbose)
        if isinstance(tenants, TenantRegistry):
            self.tenants = tenants
        else:
            self.tenants = TenantRegistry.from_config(
                tenants,
                allow_anonymous=(
                    (tenants is None or not tenants)
                    if allow_anonymous is None
                    else bool(allow_anonymous)
                ),
            )
        self.ledger = UsageLedger(usage_log)
        self._pool = SessionPool(config=config, **overrides)
        self._services: dict[str, SolverService] = {}
        self._tickets: dict[str, _TicketRecord] = {}
        self._active: dict[str, int] = {}
        self._next_id = 1
        self._lock = threading.Lock()
        self._closed = False
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or SIGINT)."""
        self._serving.set()
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self._serving.clear()

    def start(self) -> "ReproServer":
        """Serve on a background thread (tests, examples); returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-server", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the listener, drain every service, close the session pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            services = list(self._services.values())
        # ``BaseServer.shutdown()`` blocks on an event that only
        # ``serve_forever()`` sets — calling it when the serve loop never
        # started (a signal landing between bind and serve) would hang.
        if self._serving.is_set():
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        for service in services:
            service.shutdown(wait=True)
        self._pool.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Services and tickets
    # ------------------------------------------------------------------ #

    def _service_for(self, model: str) -> SolverService:
        """The (lazily created) service of one model, session from the pool."""
        with self._lock:
            if self._closed:
                raise SessionError("server is shut down")
            service = self._services.get(model)
            if service is None:
                try:
                    session = self._pool.get(model)
                except RegistryError as exc:
                    raise RequestValidationError(str(exc), field="model") from None
                service = SolverService(
                    session=session, max_workers=self.max_workers
                )
                self._services[model] = service
            return service

    def stats(self) -> dict:
        """Aggregate service stats across models (``/v1/healthz``)."""
        with self._lock:
            services = dict(self._services)
        return {name: svc.stats() for name, svc in services.items()}

    def health(self) -> dict:
        """The deepened ``/v1/healthz`` body: liveness plus readiness.

        Liveness ("is the process serving?") is trivially ``ok`` once this
        runs.  Readiness is per model: a model is ready when its circuit is
        closed and its transport is not degraded; the aggregate ``status``
        stays ``"ok"`` while every instantiated model is ready and turns
        ``"degraded"`` otherwise (load balancers key off it without parsing
        the per-model detail).
        """
        with self._lock:
            services = dict(self._services)
        models: dict[str, Any] = {}
        all_ready = True
        for name, svc in services.items():
            circuit = svc.breaker.describe()
            try:
                transport = svc.session.transport_health()
            except Exception as exc:  # noqa: BLE001 - health must not 500
                transport = {"kind": "unknown", "error": str(exc)}
            degraded = bool(transport.get("degraded"))
            if circuit["state"] != "closed":
                state = "circuit_open"
            elif degraded:
                state = "degraded"
            else:
                state = "ready"
            all_ready = all_ready and state == "ready"
            models[name] = {
                "state": state,
                "circuit": circuit,
                "transport": transport,
            }
            # Sessions on the TCP transport carry cluster membership: node
            # count and per-node liveness, promoted to its own block so
            # monitors need not know the transport report's layout.
            if "cluster" in transport:
                models[name]["cluster"] = transport["cluster"]
        return {
            "status": "ok" if all_ready else "degraded",
            "liveness": "ok",
            "readiness": {"ready": all_ready, "models": models},
            "services": self.stats(),
        }

    def active_tickets(self, tenant: str) -> int:
        with self._lock:
            return self._active.get(tenant, 0)

    def submit(self, tenant: Tenant, payload: Mapping[str, Any]) -> _TicketRecord:
        """Validate, admit, and enqueue one solve request."""
        if not isinstance(payload, Mapping):
            raise RequestValidationError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        model = payload.get("model") or self.default_model
        if not isinstance(model, str):
            raise RequestValidationError(
                f"model must be a string, got {type(model).__name__}", field="model"
            )
        overrides = payload.get("config") or {}
        if not isinstance(overrides, Mapping):
            raise RequestValidationError(
                f"config must be a JSON object of field overrides, got "
                f"{type(overrides).__name__}",
                field="config",
            )
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise RequestValidationError(
                    f"deadline_s must be a number, got {deadline_s!r}",
                    field="deadline_s",
                ) from None
            if not deadline_s > 0:
                raise RequestValidationError(
                    f"deadline_s must be > 0 (got {deadline_s!r})",
                    field="deadline_s",
                )
        budget = decode_budget(payload.get("budget"))
        problem = decode_problem(payload.get("problem"))
        service = self._service_for(model)

        # Admission control *after* validation (a malformed request is 400,
        # not a quota charge) but *before* the ticket exists: an over-quota
        # tenant never occupies a queue slot.
        admit(
            tenant,
            self.active_tickets(tenant.name),
            self.ledger.totals(tenant.name),
        )

        with self._lock:
            rid = f"t{self._next_id}"
            self._next_id += 1
            record = _TicketRecord(rid, tenant.name, model)
            self._tickets[rid] = record
            self._active[tenant.name] = self._active.get(tenant.name, 0) + 1
        try:
            ticket = service.submit(
                problem,
                deadline_s=deadline_s,
                budget=budget,
                tenant=tenant.name,
                on_progress=record.append,
                **dict(overrides),
            )
        except BaseException:
            with self._lock:
                self._active[tenant.name] -= 1
                self._tickets.pop(rid, None)
            raise
        record.ticket = ticket
        record.append({"event": "queued", "ticket": rid, "model": model})
        ticket._future.add_done_callback(lambda _f: self._on_done(record))
        return record

    def _on_done(self, record: _TicketRecord) -> None:
        """Bill one finished ticket and emit its terminal event."""
        ticket = record.ticket
        assert ticket is not None
        with self._lock:
            self._active[record.tenant] = max(0, self._active.get(record.tenant, 1) - 1)
        started = ticket.started_at
        wall_s = (time.monotonic() - started) if started is not None else 0.0
        status = ticket.status
        iterations = 0
        bits = 0
        error_payload: Optional[dict] = None
        if status == "done":
            result = ticket.result()
            iterations = int(result.iterations)
            bits = int(result.resources.total_communication_bits)
        elif status == "failed":
            exc = ticket.error
            assert exc is not None
            error_payload = exception_to_error(exc)
            if isinstance(exc, BudgetExceededError):
                iterations = exc.iterations
                bits = exc.communication_bits
        self.ledger.record(
            record.tenant,
            outcome=status,
            wall_s=wall_s,
            iterations=iterations,
            communication_bits=bits,
            ticket=record.id,
            model=record.model,
        )
        terminal = {"event": status, "ticket": record.id, "wall_s": wall_s}
        if error_payload is not None:
            terminal.update(error_payload)
        record.append(terminal)

    def ticket_record(self, rid: str, tenant: Tenant) -> _TicketRecord:
        with self._lock:
            record = self._tickets.get(rid)
        # Unknown id and someone else's ticket answer identically: ticket
        # ids must not leak across tenants.
        if record is None or record.tenant != tenant.name:
            raise _HTTPError(
                404, error_body("not_found", f"no ticket {rid!r} for this tenant")
            )
        return record

    def ticket_payload(self, record: _TicketRecord) -> dict:
        """The poll body of one ticket (result inline once finished)."""
        ticket = record.ticket
        assert ticket is not None
        status = ticket.status
        body: dict[str, Any] = {
            "id": record.id,
            "status": status,
            "tenant": record.tenant,
            "model": record.model,
            "wait_s": ticket.wait_s(),
            "result": None,
            "error": None,
        }
        if status == "done":
            body["result"] = ticket.result().to_dict()
        elif status == "failed":
            error = ticket.error
            assert error is not None
            body["error"] = exception_to_error(error)["error"]
        return body


# ---------------------------------------------------------------------- #
# The HTTP handler
# ---------------------------------------------------------------------- #


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-server/1"

    @property
    def app(self) -> ReproServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        if self.app.verbose:
            super().log_message(fmt, *args)

    # -------------------------------------------------------------- #
    # Plumbing
    # -------------------------------------------------------------- #

    def _send_json(
        self, status: int, body: dict, headers: Optional[dict] = None
    ) -> None:
        # json.dumps' default allow_nan keeps non-finite margins alive on
        # the wire (IEEE tokens); json.loads parses them back.
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)

    def _authenticate(self) -> Tenant:
        return self.app.tenants.authenticate(self.headers.get(API_KEY_HEADER))

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _HTTPError(
                400, error_body("invalid_request", "request body required")
            )
        if length > MAX_BODY_BYTES:
            raise _HTTPError(
                413,
                error_body(
                    "invalid_request",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                ),
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise _HTTPError(
                400, error_body("invalid_request", f"malformed JSON body: {exc}")
            ) from None

    def _dispatch(self, handler: Any) -> None:
        try:
            handler()
        except _HTTPError as exc:
            self._send_json(exc.status, exc.body, exc.headers)
        except AuthenticationError as exc:
            self._send_json(401, error_body("unauthorized", str(exc)))
        except QuotaExceededError as exc:
            self._send_json(
                429,
                error_body(
                    "quota_exhausted",
                    str(exc),
                    reason=exc.reason,
                    limit=exc.limit,
                    used=exc.used,
                ),
                headers={"Retry-After": "1"},
            )
        except CircuitOpenError as exc:
            # A tripped per-model breaker: a structured 503 that names the
            # cooldown both in the body and in the Retry-After header.
            self._send_json(
                503,
                error_body(
                    "circuit_open",
                    str(exc),
                    retryable=True,
                    retry_after=exc.retry_after_s,
                    model=exc.model,
                ),
                headers={"Retry-After": str(max(1, math.ceil(exc.retry_after_s)))},
            )
        except RequestValidationError as exc:
            self._send_json(
                400,
                error_body("invalid_request", str(exc), field=exc.field),
            )
        except (InvalidConfigError, InvalidInstanceError) as exc:
            self._send_json(400, error_body("invalid_request", str(exc), field=""))
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - the 500 of last resort
            try:
                self._send_json(
                    500, error_body("internal", f"{type(exc).__name__}: {exc}")
                )
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True

    # -------------------------------------------------------------- #
    # Routes
    # -------------------------------------------------------------- #

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch(self._post)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch(self._get)

    def _post(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path != "/v1/solve":
            raise _HTTPError(404, error_body("not_found", f"no route {path!r}"))
        tenant = self._authenticate()
        record = self.app.submit(tenant, self._read_body())
        self._send_json(
            202,
            {
                "ticket": {
                    "id": record.id,
                    "status": "queued",
                    "tenant": record.tenant,
                    "model": record.model,
                    "links": {
                        "self": f"/v1/tickets/{record.id}",
                        "events": f"/v1/tickets/{record.id}/events",
                    },
                }
            },
        )

    def _get(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/")
        if path == "/v1/healthz":
            self._send_json(200, self.app.health())
            return
        if path == "/v1/models":
            models = {
                name: _json_safe(dict(describe_model(name)))
                for name in available_models()
            }
            self._send_json(
                200, {"default": self.app.default_model, "models": models}
            )
            return
        if path == "/v1/usage":
            tenant = self._authenticate()
            self._send_json(
                200,
                {
                    "tenant": tenant.name,
                    "quota": tenant.quota.as_dict(),
                    "active_tickets": self.app.active_tickets(tenant.name),
                    "usage": self.app.ledger.totals(tenant.name).as_dict(),
                },
            )
            return
        if path.startswith("/v1/tickets/"):
            tail = path[len("/v1/tickets/") :]
            if tail.endswith("/events"):
                rid = tail[: -len("/events")]
                tenant = self._authenticate()
                record = self.app.ticket_record(rid, tenant)
                query = parse_qs(parsed.query)
                timeout = float(query.get("timeout", ["300"])[0])
                # A reconnecting client replays from where its previous
                # stream broke off: Last-Event-ID carries the absolute
                # index of the last frame it saw.
                raw_last = self.headers.get("Last-Event-ID")
                try:
                    start = int(raw_last) + 1 if raw_last is not None else 0
                except ValueError:
                    start = 0
                self._stream_events(record, timeout, max(0, start))
                return
            tenant = self._authenticate()
            record = self.app.ticket_record(tail, tenant)
            self._send_json(200, self.app.ticket_payload(record))
            return
        raise _HTTPError(404, error_body("not_found", f"no route {path!r}"))

    def _stream_events(
        self, record: _TicketRecord, timeout: float, start: int = 0
    ) -> None:
        """Replay queued events from ``start``, then stream until terminal.

        Every frame carries ``id: <absolute index>`` so clients can resume
        a broken stream with ``Last-Event-ID`` and miss nothing.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        deadline = time.monotonic() + timeout
        index = start
        while True:
            with record.cond:
                while (
                    index >= len(record.events)
                    and not record.terminal
                    and time.monotonic() < deadline
                ):
                    record.cond.wait(timeout=0.25)
                batch = record.events[index:]
                batch_start = index
                index = len(record.events)
                terminal = record.terminal and index >= len(record.events)
            try:
                for offset, event in enumerate(batch):
                    payload = {k: v for k, v in event.items() if k != "event"}
                    self.wfile.write(
                        sse_event(
                            event["event"], payload, event_id=batch_start + offset
                        )
                    )
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
            if terminal or time.monotonic() >= deadline:
                return
