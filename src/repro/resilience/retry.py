"""Bounded retry with exponential backoff and jitter.

One small policy object shared by the retry sites above the transports: the
service's per-ticket retry of retryable
:class:`~repro.core.exceptions.TransportFailure`, and the HTTP client's
idempotent-GET retry.  Jitter is drawn from a caller-supplied
``random.Random`` so chaos tests stay deterministic from a seed.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Optional

from ..core.exceptions import InvalidConfigError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a transient failure.

    Attributes
    ----------
    max_attempts:
        Total attempts (``1`` = no retry; ``0`` = give up without trying,
        used to disable worker restarts entirely).
    backoff_s:
        Delay before the first retry.
    backoff_factor:
        Multiplier applied per subsequent retry (exponential backoff).
    max_backoff_s:
        Upper bound on any single delay.
    jitter:
        Fraction of the computed delay added as uniform random jitter
        (``0.25`` adds up to +25%), de-synchronising retry storms.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise InvalidConfigError(
                f"RetryPolicy.max_attempts must be >= 0, got {self.max_attempts!r}"
            )
        if self.backoff_s < 0:
            raise InvalidConfigError(
                f"RetryPolicy.backoff_s must be >= 0, got {self.backoff_s!r}"
            )
        if self.backoff_factor < 1:
            raise InvalidConfigError(
                f"RetryPolicy.backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.max_backoff_s < 0:
            raise InvalidConfigError(
                f"RetryPolicy.max_backoff_s must be >= 0, got {self.max_backoff_s!r}"
            )
        if self.jitter < 0:
            raise InvalidConfigError(
                f"RetryPolicy.jitter must be >= 0, got {self.jitter!r}"
            )

    def delay(self, attempt: int, rng: Optional[_random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (0-based), with jitter.

        Passing a seeded ``rng`` makes the jitter deterministic; ``None``
        draws from the module-level generator.
        """
        base = min(
            self.max_backoff_s,
            self.backoff_s * self.backoff_factor ** max(0, int(attempt)),
        )
        if self.jitter > 0:
            draw = rng.random() if rng is not None else _random.random()
            base += base * self.jitter * draw
        return base
