"""Multiplicative weight bookkeeping for Algorithm 1.

Algorithm 1 maintains a weight ``w(S)`` for every constraint ``S``; after a
successful iteration every constraint violating the current basis has its
weight multiplied by ``n^{1/r}`` (the *boost* factor).

:class:`ExplicitWeights` stores the full weight vector (used by the
sequential in-memory reference implementation and by the coordinator sites,
each of which only stores weights for its own constraints).  The streaming
reader and the MPC machines never store per-constraint weights: they keep
the bases of all successful iterations, and the weight of a constraint is
``boost ** (number of stored bases it violates)`` (Section 3.2), which they
recompute on the fly with one ``LPTypeProblem.violation_count_matrix``
sweep.  :meth:`ExplicitWeights.from_exponents` turns such counts into an
explicit vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import kernels

__all__ = ["ExplicitWeights", "boost_factor"]


def boost_factor(num_constraints: int, r: int) -> float:
    """Return Algorithm 1's weight boost ``n^{1/r}``."""
    if num_constraints < 1:
        raise ValueError(f"num_constraints must be >= 1, got {num_constraints}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return float(num_constraints) ** (1.0 / r)


@dataclass
class ExplicitWeights:
    """A dense weight vector with in-place, log-space multiplicative updates.

    Weights are kept in log-space internally so that ``boost ** t`` never
    overflows even for many successful iterations (``n^{t/r}`` grows
    quickly); a boost is one in-place add of ``log(boost)`` at the violator
    indices.  The exponentiated (max-normalised) vector and its total are
    computed lazily and cached between boosts, so the success test and any
    residual ``weights()`` consumers never trigger repeated ``O(n)``
    exponentiation within one iteration.
    """

    log_weights: np.ndarray
    boost: float
    _scaled: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _scaled_total: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._log_boost = float(np.log(self.boost))

    @classmethod
    def uniform(cls, count: int, boost: float) -> "ExplicitWeights":
        """All-ones weights over ``count`` constraints with boost factor ``boost``."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if boost <= 1.0:
            raise ValueError(f"boost must exceed 1, got {boost}")
        return cls(log_weights=np.zeros(count, dtype=float), boost=float(boost))

    @classmethod
    def from_exponents(
        cls, exponents: Sequence[int] | np.ndarray, boost: float
    ) -> "ExplicitWeights":
        """Weights ``boost ** exponents`` in log-space (warm-start seeding).

        This is the bridge between the two weight realisations: a prior
        run's implicit weights — the per-constraint count of stored bases
        violated (Section 3.2) — become an explicit vector, so a
        warm-restarted explicit-weight driver starts exactly where an
        implicit-weight driver carrying the same bases would.  All-zero
        exponents reproduce :meth:`uniform` bit for bit.
        """
        if boost <= 1.0:
            raise ValueError(f"boost must exceed 1, got {boost}")
        exp = np.asarray(exponents, dtype=float).reshape(-1)
        if exp.size < 1:
            raise ValueError(f"need at least one exponent, got {exp.size}")
        return cls(log_weights=exp * float(np.log(boost)), boost=float(boost))

    def __len__(self) -> int:
        return int(self.log_weights.size)

    def _scaled_weights(self) -> np.ndarray:
        if self._scaled is None:
            self._scaled = kernels.active_backend().exp_shift(
                self.log_weights, float(self.log_weights.max())
            )
            self._scaled.flags.writeable = False  # cached view: enforce read-only
            self._scaled_total = float(self._scaled.sum())
        return self._scaled

    @property
    def scaled_total(self) -> float:
        """Sum of the max-normalised weight vector.

        Exposed so fused-sweep consumers can turn a violated-weight sum into
        the success-test fraction without re-reducing the full vector.
        """
        self._scaled_weights()
        return self._scaled_total

    def weights(self) -> np.ndarray:
        """The full weight vector, normalised to a maximum of 1 to avoid overflow.

        Sampling proportional to weights is invariant under a global scale,
        so the normalisation does not change the algorithm's behaviour.  The
        returned array is a cached view — treat it as read-only.
        """
        return self._scaled_weights()

    def total_weight_log(self) -> float:
        """``log(sum of weights)`` computed stably."""
        self._scaled_weights()
        return float(self.log_weights.max() + np.log(self._scaled_total))

    def multiply(self, indices: Sequence[int] | np.ndarray) -> None:
        """Multiply the weights at ``indices`` by the boost factor (in place)."""
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            return
        self.log_weights[idx] += self._log_boost
        self._scaled = None
