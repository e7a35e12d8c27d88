"""Multi-tenancy for the HTTP front end: API keys, quotas, admission.

A :class:`Tenant` is a named principal with a :class:`TenantQuota`; the
:class:`TenantRegistry` maps the ``X-API-Key`` request header to tenants
(optionally admitting unauthenticated requests as a shared *anonymous*
tenant).  :func:`admit` is the admission-control decision: it compares a
tenant's live ticket count and cumulative
:class:`~repro.core.accounting.TenantUsage` against the quota and raises
:class:`QuotaExceededError` — which the server turns into a ``429`` with a
structured error body — when any currency is exhausted.

Quotas are *cumulative* (ledger-fed) for wall seconds, iterations, and
communication bits, and *instantaneous* for concurrent tickets.  They ride
on the same currencies as the per-request
:class:`~repro.core.budget.ResourceBudget`: the budget bounds one solve,
the quota bounds a tenant's lifetime spend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..core.accounting import TenantUsage
from ..core.exceptions import InvalidConfigError, ReproError

__all__ = [
    "AuthenticationError",
    "QuotaExceededError",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "admit",
]

#: Header carrying the API key.
API_KEY_HEADER = "X-API-Key"

#: Tenant name used for unauthenticated requests when anonymous access is on.
ANONYMOUS_TENANT = "public"


class AuthenticationError(ReproError):
    """Missing or unknown API key (the server answers 401)."""


class QuotaExceededError(ReproError):
    """A tenant's quota is exhausted (the server answers 429).

    Attributes
    ----------
    reason:
        The exhausted currency: ``"concurrent"``, ``"wall_time"``,
        ``"iterations"``, or ``"communication_bits"``.
    limit / used:
        The quota value and the tenant's current spend in that currency.
    """

    def __init__(self, message: str, *, reason: str, limit: Any, used: Any) -> None:
        super().__init__(message)
        self.reason = reason
        self.limit = limit
        self.used = used


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits; ``None`` disables a currency (the default).

    ``max_concurrent`` bounds the tickets a tenant may have queued or
    running at once; the other three bound the tenant's *cumulative* spend
    as recorded by the :class:`~repro.core.accounting.UsageLedger`.
    """

    max_concurrent: Optional[int] = None
    wall_time_s: Optional[float] = None
    iterations: Optional[int] = None
    communication_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise InvalidConfigError(
                f"TenantQuota.max_concurrent must be >= 1 (got {self.max_concurrent!r})"
            )
        if self.wall_time_s is not None and not self.wall_time_s > 0:
            raise InvalidConfigError(
                f"TenantQuota.wall_time_s must be > 0 (got {self.wall_time_s!r})"
            )
        if self.iterations is not None and self.iterations < 1:
            raise InvalidConfigError(
                f"TenantQuota.iterations must be >= 1 (got {self.iterations!r})"
            )
        if self.communication_bits is not None and self.communication_bits < 1:
            raise InvalidConfigError(
                "TenantQuota.communication_bits must be >= 1 "
                f"(got {self.communication_bits!r})"
            )

    def as_dict(self) -> dict:
        return {
            "max_concurrent": self.max_concurrent,
            "wall_time_s": self.wall_time_s,
            "iterations": self.iterations,
            "communication_bits": self.communication_bits,
        }


@dataclass(frozen=True)
class Tenant:
    """One named principal of the server."""

    name: str
    quota: TenantQuota = TenantQuota()


class TenantRegistry:
    """API-key to tenant resolution.

    ``keys`` maps API-key strings to :class:`Tenant` records; ``anonymous``
    (if set) is the tenant unauthenticated requests run as.  With neither,
    every request is rejected with 401.
    """

    def __init__(
        self,
        keys: Optional[Mapping[str, Tenant]] = None,
        anonymous: Optional[Tenant] = None,
    ) -> None:
        self._keys = dict(keys or {})
        self._anonymous = anonymous

    @classmethod
    def from_config(
        cls, payload: Optional[Mapping[str, Any]], allow_anonymous: bool
    ) -> "TenantRegistry":
        """Build a registry from the ``serve`` CLI's tenants file.

        ``payload`` maps each API key to ``{"tenant": name, "max_concurrent":
        ..., "wall_time_s": ..., "iterations": ..., "communication_bits":
        ...}`` (all quota fields optional).  Values may also be
        :class:`Tenant` instances (the in-process constructor path).
        """
        keys: dict[str, Tenant] = {}
        for api_key, spec in (payload or {}).items():
            if isinstance(spec, Tenant):
                keys[str(api_key)] = spec
                continue
            if not isinstance(spec, Mapping):
                raise InvalidConfigError(
                    f"tenant entry for key {api_key!r} must be an object, "
                    f"got {type(spec).__name__}"
                )
            spec = dict(spec)
            name = str(spec.pop("tenant", "") or spec.pop("name", ""))
            if not name:
                raise InvalidConfigError(
                    f"tenant entry for key {api_key!r} needs a 'tenant' name"
                )
            unknown = set(spec) - {
                "max_concurrent",
                "wall_time_s",
                "iterations",
                "communication_bits",
            }
            if unknown:
                raise InvalidConfigError(
                    f"unknown tenant quota field(s) for {name!r}: "
                    f"{', '.join(sorted(map(repr, unknown)))}"
                )
            keys[str(api_key)] = Tenant(name=name, quota=TenantQuota(**spec))
        anonymous = Tenant(name=ANONYMOUS_TENANT) if allow_anonymous else None
        return cls(keys=keys, anonymous=anonymous)

    @property
    def allows_anonymous(self) -> bool:
        return self._anonymous is not None

    def authenticate(self, api_key: Optional[str]) -> Tenant:
        """The tenant of one request, from its ``X-API-Key`` header value."""
        if api_key:
            tenant = self._keys.get(api_key)
            if tenant is None:
                raise AuthenticationError("unknown API key")
            return tenant
        if self._anonymous is not None:
            return self._anonymous
        raise AuthenticationError(
            f"missing {API_KEY_HEADER} header (anonymous access is disabled)"
        )


def admit(tenant: Tenant, active_tickets: int, totals: TenantUsage) -> None:
    """Admission control: raise :class:`QuotaExceededError` when exhausted.

    Checked at submission time, *before* the ticket enters the queue, so a
    tenant over quota cannot crowd out others' requests — the paper-side
    budgets (:class:`~repro.core.budget.ResourceBudget`) still bound each
    admitted solve individually.
    """
    quota = tenant.quota
    if quota.max_concurrent is not None and active_tickets >= quota.max_concurrent:
        raise QuotaExceededError(
            f"tenant {tenant.name!r} already has {active_tickets} tickets in "
            f"flight (limit {quota.max_concurrent})",
            reason="concurrent",
            limit=quota.max_concurrent,
            used=active_tickets,
        )
    if quota.wall_time_s is not None and totals.wall_s >= quota.wall_time_s:
        raise QuotaExceededError(
            f"tenant {tenant.name!r} has consumed {totals.wall_s:.3f}s of its "
            f"{quota.wall_time_s:g}s wall-time quota",
            reason="wall_time",
            limit=quota.wall_time_s,
            used=totals.wall_s,
        )
    if quota.iterations is not None and totals.iterations >= quota.iterations:
        raise QuotaExceededError(
            f"tenant {tenant.name!r} has consumed {totals.iterations} of its "
            f"{quota.iterations} iteration quota",
            reason="iterations",
            limit=quota.iterations,
            used=totals.iterations,
        )
    if (
        quota.communication_bits is not None
        and totals.communication_bits >= quota.communication_bits
    ):
        raise QuotaExceededError(
            f"tenant {tenant.name!r} has consumed {totals.communication_bits} "
            f"of its {quota.communication_bits} communication-bit quota",
            reason="communication_bits",
            limit=quota.communication_bits,
            used=totals.communication_bits,
        )
