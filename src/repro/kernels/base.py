"""Shared contracts of the kernel layer.

A *kernel backend* implements the small set of array primitives that dominate
the solver's wall-clock at large ``n``: the fused violation sweep (one pass
producing mask, count, and weight sums), full-precision score evaluation,
multi-witness violation counting, batched small linear solves, Seidel's
first-violator scan, and the two sampling-side element-wise kernels (Gumbel
top-k keys and the shifted exponential).  Backends are interchangeable: the
``numpy`` reference backend reproduces the pre-kernel-layer implementation
operation for operation, and every other backend must return **bit-identical
masks, counts, scores, and sample indices** on the same inputs.  Weight
*sums* are the one sanctioned exception: blocked accumulation may differ from
the reference's single ``np.sum`` in the last few ulps (the success test
``w(V)/w(S) <= eps`` is a tolerance comparison, so this never changes
behaviour in practice).

Backends receive the :class:`~repro.core.lptype.ConstraintPack` duck-typed:
they rely only on ``rows`` / ``rhs`` / ``limit`` / ``sense`` plus the
``kernel_cache()`` dict for per-pack precomputed arrays (e.g. the float32
mirrors of the ``fused`` backend).  The kernel layer itself imports nothing
from ``repro.core`` so it can never participate in an import cycle.

Row selection is passed as a *selector*: ``None`` (all rows), a ``slice``
(a contiguous range — sliced as a view, no copy), or an int index array
(a gather).  :func:`repro.core.lptype._as_selector` produces these.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

__all__ = ["SweepStats", "KernelBackend", "select", "selector_length"]

#: Smallest positive double — uniform draws are clamped here before ``log``
#: (mirrors ``repro.core.sampling._TINY_UNIFORM``; duplicated so the kernel
#: layer stays import-free of ``repro.core``).
_TINY_UNIFORM = float(np.nextafter(0.0, 1.0))

#: Row-block length of the blocked kernels.  Large enough that the Python /
#: dispatch overhead of the block loop is negligible against the array work
#: (~150 blocks at n = 10^7), small enough that a float32 row block plus its
#: per-block temporaries stay cache-resident for the dimensions this
#: repository runs (d <= ~16: 65536 rows x 16 coefficients x 4 bytes = 4 MB).
#: Block starts are multiples of 65536, so every block pointer keeps the base
#: array's 64-byte alignment class for any d and the blocked matmul stays
#: bit-identical to the full one.
BLOCK_ROWS = 65536


def select(arr: np.ndarray, sel) -> np.ndarray:
    """Apply a selector: ``None`` -> the array, slice -> view, index -> gather."""
    return arr if sel is None else arr[sel]


def selector_length(sel, n: int) -> int:
    """Number of rows a selector picks out of ``n``."""
    if sel is None:
        return int(n)
    if isinstance(sel, slice):
        start, stop, _ = sel.indices(n)
        return max(0, stop - start)
    return int(sel.size)


@dataclass(frozen=True)
class SweepStats:
    """Result of one fused violation sweep.

    ``mask`` is the boolean violation mask over the selected rows; ``count``
    its popcount; ``violated_weight`` the sum of the caller's weights over
    the violated rows (the violator *count* when no weights were given);
    ``total_weight`` the full weight sum, or ``None`` when the caller asked
    to skip it (``need_total=False``).
    """

    mask: np.ndarray
    count: int
    violated_weight: float
    total_weight: Optional[float]


class KernelBackend(abc.ABC):
    """One implementation of the hot-loop array primitives.

    The reference semantics of every method are fixed by
    :class:`repro.kernels.reference.NumpyBackend`; see the module docstring
    for which outputs must match bit for bit.
    """

    #: Registry name (``numpy``, ``fused``, ``numba``).
    name: str = "?"

    # ------------------------------------------------------------------ #
    # Constraint-pack primitives
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def scores(self, pack: Any, encoded: tuple[np.ndarray, float], sel) -> np.ndarray:
        """Full-precision violation scores of the selected rows (positive = violated)."""

    @abc.abstractmethod
    def sweep(
        self,
        pack: Any,
        encoded: tuple[np.ndarray, float],
        sel,
        weights: Optional[np.ndarray] = None,
        need_total: bool = True,
        log_weights: Optional[np.ndarray] = None,
        log_shift: float = 0.0,
    ) -> SweepStats:
        """One fused pass: violation mask, count, and weight sums.

        ``weights`` (when given) is aligned with the *selected* rows.
        ``log_weights`` is the log-space alternative (mutually exclusive
        with ``weights``): the effective weight of row ``j`` is
        ``exp(log_weights[j] - log_shift)``.  Passing logs lets a blocked
        backend exponentiate cache-resident blocks inside the sweep instead
        of forcing the caller to materialise the scaled vector; the
        reference backend materialises ``exp(log_weights - log_shift)``
        up front (the historical implementation), so per-element scaled
        values are bit-identical across backends and only the *sums* are
        subject to the usual accumulation-order exception.
        """

    @abc.abstractmethod
    def count_matrix(
        self,
        pack: Any,
        vecs: np.ndarray,
        offsets: np.ndarray,
        sel,
    ) -> np.ndarray:
        """Per selected row, how many of the encoded witnesses it violates.

        ``vecs`` has shape ``(d, W)`` and ``offsets`` shape ``(W,)``.
        """

    # ------------------------------------------------------------------ #
    # Linear-algebra / scan primitives
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def solve_many(self, mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve a stack of same-shape square systems ``mats[i] @ x = rhs[i]``.

        ``mats`` has shape ``(B, m, m)``, ``rhs`` shape ``(B, m)``; returns
        shape ``(B, m)``.  Raises ``np.linalg.LinAlgError`` if any system is
        singular.
        """

    @abc.abstractmethod
    def first_violator(
        self, a: np.ndarray, b: np.ndarray, x: np.ndarray, eps: float
    ) -> Optional[int]:
        """Index of the first row with ``a[j] . x - b[j] > eps``, else ``None``."""

    # ------------------------------------------------------------------ #
    # Sampling-side element-wise kernels
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def gumbel_top_k(
        self, log_weights: np.ndarray, size: int, gen: np.random.Generator
    ) -> np.ndarray:
        """Gumbel top-k sample of distinct indices, ascending.

        Must consume the generator's uniform stream exactly as the reference
        does and return bit-identical indices.
        """

    @abc.abstractmethod
    def exp_shift(self, values: np.ndarray, shift: float) -> np.ndarray:
        """``exp(values - shift)`` (the max-normalised weight vector)."""

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name}>"
