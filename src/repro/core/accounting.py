"""Cost accounting primitives shared by all computation-model substrates.

The paper measures three families of resources:

* **streaming**: number of passes over the input and the peak number of bits
  kept in memory,
* **coordinator**: number of rounds and the total number of bits exchanged
  between the sites and the coordinator,
* **MPC**: number of rounds and the *load*, i.e. the maximum number of bits
  sent or received by any machine in any round.

This module provides the small value objects the substrates use to count
those resources exactly.  Everything is counted in bits with a configurable
``bits_per_coefficient`` (the paper assumes ``bit(S) = O(log n)`` bits per
number; we default to 64-bit words and record the convention in the results).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

import numpy as np

from .context import solve_context

#: Default number of bits charged for one numeric coefficient in a message.
DEFAULT_BITS_PER_COEFFICIENT = 64

#: Default number of bits charged for one integer counter (index, count, ...).
DEFAULT_BITS_PER_COUNTER = 32


@dataclass(frozen=True)
class BitCostModel:
    """Defines how logical payloads are converted to bit counts.

    Parameters
    ----------
    bits_per_coefficient:
        Bits charged for every real coefficient of a constraint or point.
    bits_per_counter:
        Bits charged for small integers (sample counts, indices, flags).
    """

    bits_per_coefficient: int = DEFAULT_BITS_PER_COEFFICIENT
    bits_per_counter: int = DEFAULT_BITS_PER_COUNTER

    def coefficients(self, count: int) -> int:
        """Bits for ``count`` real coefficients."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return count * self.bits_per_coefficient

    def counters(self, count: int) -> int:
        """Bits for ``count`` small integers."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return count * self.bits_per_counter

    def array(self, values: np.ndarray | Iterable[float]) -> int:
        """Bits for an array of real values."""
        arr = np.asarray(values)
        return self.coefficients(int(arr.size))


@dataclass
class StreamingMemory:
    """Peak-memory tracker for a streaming algorithm.

    The driver reports its currently stored items / bits; the tracker records
    the peak footprint, which is the quantity Theorem 1 bounds.
    """

    peak_items: int = 0
    peak_bits: int = 0

    def set_usage(self, items: int, bits: int) -> None:
        """Report the current memory footprint."""
        self.peak_items = max(self.peak_items, items)
        self.peak_bits = max(self.peak_bits, bits)


@dataclass
class RoundLedger:
    """Tracks per-round costs (used by the coordinator and MPC substrates)."""

    rounds: list[dict] = field(default_factory=list)

    def record(self, **costs: int) -> None:
        """Append a round with the given named costs.

        If the enclosing solve's context carries a
        :class:`~repro.core.budget.ProgressTap`, the round is also emitted as
        a progress event — this single hook covers every topology
        (coordinator rounds, MPC rounds, and stream passes all record through
        one ledger).
        """
        self.rounds.append(dict(costs))
        tap = solve_context().tap
        if tap is not None:
            tap.emit(
                "round",
                round=len(self.rounds),
                **{key: int(value) for key, value in costs.items()},
            )

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def total(self, key: str) -> int:
        """Sum of ``key`` across rounds (missing keys count as 0)."""
        return sum(int(r.get(key, 0)) for r in self.rounds)

    def maximum(self, key: str) -> int:
        """Maximum of ``key`` across rounds (0 if no rounds recorded)."""
        if not self.rounds:
            return 0
        return max(int(r.get(key, 0)) for r in self.rounds)

    def as_table(self) -> list[Mapping[str, int]]:
        """Rounds as an immutable-ish list of dicts (for reports)."""
        return [dict(r) for r in self.rounds]


# ---------------------------------------------------------------------- #
# Tenant attribution: the usage ledger of the service front end.
# ---------------------------------------------------------------------- #


@dataclass
class TenantUsage:
    """Cumulative resource totals attributed to one tenant.

    The currencies mirror :class:`~repro.core.budget.ResourceBudget`: wall
    seconds, meta-algorithm iterations, and measured communication bits —
    plus ticket outcome counts so quota decisions and billing views need no
    second bookkeeping pass.
    """

    tickets: int = 0
    done: int = 0
    failed: int = 0
    wall_s: float = 0.0
    iterations: int = 0
    communication_bits: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class UsageLedger:
    """Thread-safe per-tenant usage totals with an optional JSONL log.

    Every finished ticket is recorded once — successes from the final
    :class:`~repro.core.result.ResourceUsage`, budget aborts from the
    partial usage carried by the
    :class:`~repro.core.exceptions.BudgetExceededError` — so truncated
    requests are billed for what they actually consumed.  With ``path``
    set, each record is appended as one JSON line (flushed per record: the
    ledger survives a crashed server).
    """

    def __init__(self, path: Optional[str | Path] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._totals: dict[str, TenantUsage] = {}
        self._lock = threading.Lock()

    def record(
        self,
        tenant: str,
        *,
        outcome: str,
        wall_s: float = 0.0,
        iterations: int = 0,
        communication_bits: int = 0,
        **extra: Any,
    ) -> TenantUsage:
        """Attribute one finished ticket to ``tenant``; returns new totals."""
        with self._lock:
            usage = self._totals.setdefault(tenant, TenantUsage())
            usage.tickets += 1
            if outcome == "done":
                usage.done += 1
            elif outcome == "failed":
                usage.failed += 1
            usage.wall_s += float(wall_s)
            usage.iterations += int(iterations)
            usage.communication_bits += int(communication_bits)
            snapshot = TenantUsage(**asdict(usage))
        if self.path is not None:
            line = json.dumps(
                {
                    "ts": time.time(),
                    "tenant": tenant,
                    "outcome": outcome,
                    "wall_s": float(wall_s),
                    "iterations": int(iterations),
                    "communication_bits": int(communication_bits),
                    **extra,
                }
            )
            with self._lock:
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
        return snapshot

    def totals(self, tenant: str) -> TenantUsage:
        """A copy of ``tenant``'s totals (all-zero if never recorded)."""
        with self._lock:
            usage = self._totals.get(tenant)
            return TenantUsage(**asdict(usage)) if usage else TenantUsage()

    def tenants(self) -> dict[str, TenantUsage]:
        """Snapshot of every tenant's totals."""
        with self._lock:
            return {
                name: TenantUsage(**asdict(usage))
                for name, usage in self._totals.items()
            }

    def as_dict(self) -> dict:
        """JSON-ready map of tenant name to totals."""
        return {name: usage.as_dict() for name, usage in self.tenants().items()}
