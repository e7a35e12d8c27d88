"""Weighted sampling primitives.

Algorithm 1 samples constraints with probability proportional to their
weights.  Each computation model needs a slightly different realisation of
the same primitive:

* in memory (the sequential reference implementation) a Gumbel top-k draw
  on the log-space weight vector (:func:`gumbel_top_k`);
* in the streaming model the weights are only known *on the fly*, so the
  stream reader draws Efraimidis-Spirakis exponential keys chunk by chunk
  (:func:`exponential_keys`) and keeps a running top-``m``: the weighted
  reservoir sample without replacement, in one pass;
* in the coordinator model the coordinator splits the ``m`` draws across the
  sites with a multinomial on the per-site total weights (Lemma 3.7,
  :func:`multinomial_split`) and each site then samples locally
  (:func:`weighted_sample_without_replacement`).

All of those are implemented here so that the model-specific drivers stay
thin and the statistical behaviour can be unit-tested in one place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import kernels
from .rng import SeedLike, as_generator

__all__ = [
    "normalise_weights",
    "exponential_keys",
    "gumbel_top_k",
    "weighted_sample_without_replacement",
    "multinomial_split",
]

#: Smallest positive double: ``Generator.random`` draws from ``[0, 1)`` and
#: can return exactly 0.0, whose logarithm would produce a degenerate
#: ``-inf`` exponential key.  Uniform draws are clamped to this value, which
#: changes no probability by more than 2^-53.
_TINY_UNIFORM = float(np.nextafter(0.0, 1.0))


def normalise_weights(weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """Return ``weights`` normalised to sum to one.

    Raises
    ------
    ValueError
        If any weight is negative or all weights are zero.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"weights must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("weights must be non-empty")
    if np.any(arr < 0):
        raise ValueError("weights must be non-negative")
    total = float(arr.sum())
    if total <= 0:
        raise ValueError("total weight must be positive")
    return arr / total


def exponential_keys(
    weights: Sequence[float] | np.ndarray,
    rng: SeedLike = None,
) -> np.ndarray:
    """Batch Efraimidis-Spirakis keys ``log(u_i) / w_i`` for positive weights.

    Consumes exactly one uniform per weight, in order, so a stream processed
    in chunks draws the same keys as a single batch evaluation (and as a
    reservoir offered the items one at a time).  The ``size`` largest keys
    form a weighted sample without replacement.
    """
    gen = as_generator(rng)
    arr = np.asarray(weights, dtype=float)
    log_u = np.log(np.maximum(gen.random(arr.size), _TINY_UNIFORM))
    return log_u / arr


def gumbel_top_k(
    log_weights: Sequence[float] | np.ndarray,
    size: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Draw ``min(size, n)`` distinct indices by Gumbel top-k on log weights.

    Equivalent in distribution to :func:`weighted_sample_without_replacement`
    on ``exp(log_weights)`` but without the ``O(n)`` exponentiation and with
    an ``O(n)`` ``argpartition`` selection instead of a full sort.  Entries of
    ``-inf`` encode zero weight and are never selected.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    gen = as_generator(rng)
    arr = np.asarray(log_weights, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"log_weights must be one-dimensional, got shape {arr.shape}")
    # The selection itself is a kernel-layer primitive: every backend draws
    # the same uniform stream and returns bit-identical indices; the fused
    # backend skips the positive-index gather when no zero weights exist and
    # builds the keys in place.
    return kernels.active_backend().gumbel_top_k(arr, int(size), gen)


def weighted_sample_without_replacement(
    weights: Sequence[float] | np.ndarray,
    size: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Draw ``min(size, n)`` distinct indices, each inclusion proportional to weight.

    Uses the Efraimidis-Spirakis exponential-key construction: index ``i``
    receives key ``u_i^{1/w_i}`` for ``u_i ~ U(0,1)`` and the ``size`` largest
    keys are kept.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    gen = as_generator(rng)
    arr = np.asarray(weights, dtype=float)
    if np.any(arr < 0):
        raise ValueError("weights must be non-negative")
    positive = np.flatnonzero(arr > 0)
    if positive.size == 0:
        raise ValueError("total weight must be positive")
    size = min(size, positive.size)
    if size == 0:
        return np.empty(0, dtype=int)
    # Keys in log-space for numerical stability: log(u) / w.
    keys = exponential_keys(arr[positive], rng=gen)
    chosen = positive[np.argsort(keys)[::-1][:size]]
    return np.sort(chosen)


def multinomial_split(
    site_weights: Sequence[float] | np.ndarray,
    size: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Split ``size`` draws across sites proportionally to their total weights.

    This is the first round of the Lemma 3.7 two-round sampling procedure in
    the coordinator model: the coordinator draws the per-site sample counts
    ``y_i`` from a multinomial over the per-site weight totals.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    gen = as_generator(rng)
    probs = normalise_weights(site_weights)
    return gen.multinomial(size, probs)
