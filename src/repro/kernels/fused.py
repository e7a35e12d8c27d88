"""The ``fused`` NumPy-blocked backend.

The backend evaluates the pack primitives in row blocks of
:data:`~repro.kernels.base.BLOCK_ROWS`, so per-call temporaries are
block-sized instead of ``n``-sized and the sweep streams each row of the
constraint matrix exactly once.  Blocked matrix products are bit-identical
to the reference's full products (same per-row dot, same alignment class per
block), so masks, counts, and scores match the ``numpy`` backend exactly.

The margin sweep additionally runs in float32 with float64
re-certification.  Scores are first computed from a cached float32 mirror
of the pack, stored column-major as a ``(d, n)`` array: half the memory
traffic of a float64 pass, and ``vec32 @ cols[:, blk]`` streams about twice
as fast under BLAS as the row-major product.  Any row whose float32 score
lands inside a conservative error band around the threshold — or is
non-finite — is recomputed in float64 from the float64 rows.  The band

    band_j = gamma * (||rows_j||_1 * max|vec| + |rhs_j| + |limit_j| + |offset|),
    gamma  = (4 d + 64) * 2^-23

over-estimates the float32 error of a d-term dot product in any summation
order, FMA included (a standard forward-error bound with a ~4x safety factor
covering the band's own float32 rounding; a tiny absolute floor guards the
subnormal range), so the sign of every certified float32 score agrees with
the float64 score and the resulting masks are **bit-identical** to the
reference.

The Gumbel top-k draw consumes the reference's uniform stream and returns
its indices, but keys only the rows that can win: the boosted rows and the
rows whose raw uniform clears a threshold, widened until a bound proves that
no other row reaches the top ``size``.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from .base import BLOCK_ROWS, KernelBackend, SweepStats, _TINY_UNIFORM, select
from .reference import NumpyBackend

__all__ = ["FusedBackend"]

#: Absolute floor added to the certification band so that it never rounds to
#: zero in the float32 subnormal range while the true error is non-zero.
_BAND_FLOOR = np.float32(1e-35)

#: Coefficients per block of the mirror build: a 512 KB float64 block and
#: its float32 transpose stay cache-resident (8,192 rows at d = 8).
_BUILD_VALUES = 65536

#: Slack of the Gumbel acceptance bound, relative to the magnitudes it sums:
#: a few ulps, for scalar and SIMD ``log`` rounding apart.
_KEY_SLACK = 16 * np.finfo(np.float64).eps


class _Float32Mirror:
    """Per-pack float32 mirrors (``cols`` is ``(d, n)``) plus the band ingredients."""

    __slots__ = ("cols", "rhs", "limit", "norm1", "gmag")

    def __init__(self, pack: Any) -> None:
        rows64 = pack.rows
        n, d = rows64.shape
        self.cols = np.empty((d, n), dtype=np.float32)
        self.norm1 = np.empty(n, dtype=np.float32)
        self.rhs = pack.rhs.astype(np.float32)
        self.limit = pack.limit.astype(np.float32)
        self.gmag = np.empty(n, dtype=np.float32)
        # gamma is folded into the cached magnitude term (and, per sweep,
        # into the norm/offset scalars), so the band needs three block passes
        # instead of five; the band's safety factor absorbs the regrouped
        # rounding, and the (d+1) ulps of this float32 1-norm.  Every build
        # temporary is one block-sized scratch: the 1-norm is d passes over
        # the cache-resident columns of each transposed block.
        gamma = _band_gamma(d)
        step = _BUILD_VALUES // max(d, 1)
        scratch = np.empty(min(step, max(n, 1)), dtype=np.float32)
        for start in range(0, n, step):
            blk = slice(start, min(n, start + step))
            block = self.cols[:, blk]
            np.copyto(block, rows64[blk].T, casting="same_kind")
            part = scratch[: block.shape[1]]
            norm = self.norm1[blk]
            np.abs(block[0], out=norm)
            for k in range(1, d):
                np.abs(block[k], out=part)
                norm += part
            gmag = self.gmag[blk]
            np.abs(self.rhs[blk], out=gmag)
            np.abs(self.limit[blk], out=part)
            gmag += part
            gmag *= gamma


def _float32_mirror(pack: Any) -> _Float32Mirror:
    cache = pack.kernel_cache()
    mirror = cache.get("float32_mirror")
    if mirror is None:
        mirror = _Float32Mirror(pack)
        cache["float32_mirror"] = mirror
    return mirror


def _band_gamma(num_coefficients: int) -> np.float32:
    return np.float32((4.0 * max(1, num_coefficients) + 64.0) * 2.0**-23)


def _gumbel_keys(arr: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The reference's keys ``arr - log(-log(max(u, tiny)))``, computed in ``u``."""
    np.maximum(u, _TINY_UNIFORM, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.subtract(arr, u, out=u)


def _gumbel_candidates(
    arr: np.ndarray, u: np.ndarray, lo: float, tau: float
) -> np.ndarray:
    """Indices of the rows with ``arr > lo`` or ``u >= tau``, in one blocked pass."""
    n = arr.size
    hit = np.empty(min(BLOCK_ROWS, n), dtype=bool)
    above = np.empty_like(hit)
    found = [np.empty(0, dtype=np.intp)]
    for start in range(0, n, BLOCK_ROWS):
        stop = min(n, start + BLOCK_ROWS)
        h, a = hit[: stop - start], above[: stop - start]
        np.greater(arr[start:stop], lo, out=h)
        np.greater_equal(u[start:stop], tau, out=a)
        np.logical_or(h, a, out=h)
        found.append(np.flatnonzero(h) + start)
    return np.concatenate(found)


class FusedBackend(KernelBackend):
    """Blocked sweeps with the certified-fp32 margin pass."""

    name = "fused"

    # ------------------------------------------------------------------ #
    # Constraint-pack primitives
    # ------------------------------------------------------------------ #

    @staticmethod
    def _block_scores(rows, rhs, limit, sense, vec, offset, blk) -> np.ndarray:
        """float64 scores of the rows ``blk`` picks (reference bit pattern)."""
        m = rows[blk] @ vec
        m += offset - rhs[blk]
        if sense < 0:
            np.negative(m, out=m)
        m -= limit[blk]
        return m

    def scores(self, pack: Any, encoded: tuple[np.ndarray, float], sel) -> np.ndarray:
        vec, offset = encoded
        vec = np.asarray(vec, dtype=np.float64)
        offset = float(offset)
        arrays = tuple(select(a, sel) for a in (pack.rows, pack.rhs, pack.limit))
        n = arrays[0].shape[0]
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, BLOCK_ROWS):
            blk = slice(start, min(n, start + BLOCK_ROWS))
            out[blk] = self._block_scores(*arrays, pack.sense, vec, offset, blk)
        return out

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
        vec, offset = encoded
        vec = np.asarray(vec, dtype=np.float64)
        offset = float(offset)
        sense = pack.sense
        fancy = isinstance(sel, np.ndarray)
        mirror = _float32_mirror(pack)
        cols32 = mirror.cols if sel is None else mirror.cols[:, sel]
        rhs32 = select(mirror.rhs, sel)
        limit32 = select(mirror.limit, sel)
        norm32 = select(mirror.norm1, sel)
        gmag32 = select(mirror.gmag, sel)
        vec32 = vec.astype(np.float32)
        off32 = np.float32(offset)
        vmax32 = np.float32(np.max(np.abs(vec))) if vec.size else np.float32(0.0)
        gamma = _band_gamma(pack.rows.shape[1])
        gvmax32 = np.float32(gamma * vmax32)
        goff32 = np.float32(gamma * np.float32(abs(offset)) + _BAND_FLOOR)
        n = cols32.shape[1]
        # float64 arrays stay un-gathered for fancy selectors: only the
        # (few) band candidates are re-fetched at full precision.
        full64 = (pack.rows, pack.rhs, pack.limit)
        src64 = full64 if fancy else tuple(select(a, sel) for a in full64)

        w = weights
        # Log-space weights: exponentiate block-by-block into a scratch
        # buffer while the block is cache-resident, instead of materialising
        # the full exp(log_weights - log_shift) vector.  np.exp is
        # element-wise, so per-row scaled values equal the reference's.
        logw = log_weights
        blocklen = min(BLOCK_ROWS, max(n, 1))
        wbuf = np.empty(blocklen, dtype=np.float64) if logw is not None else None
        # Every per-block float32 temporary lives in one of these
        # preallocated scratch buffers: at ~150 blocks per 10^7-row sweep,
        # per-block allocations would otherwise be a measurable fraction of
        # the pass.
        s32buf = np.empty(blocklen, dtype=np.float32)
        bandbuf = np.empty(blocklen, dtype=np.float32)
        candbuf = np.empty(blocklen, dtype=bool)
        finbuf = np.empty(blocklen, dtype=bool)
        mask = np.empty(n, dtype=bool)
        count = 0
        violated = 0.0
        total = 0.0
        for start in range(0, n, BLOCK_ROWS):
            stop = min(n, start + BLOCK_ROWS)
            blk = slice(start, stop)
            m = stop - start
            if logw is not None:
                w_scratch = wbuf[:m]
                np.subtract(logw[blk], log_shift, out=w_scratch)
                np.exp(w_scratch, out=w_scratch)
            # The float32 association differs from the reference's
            # (in-place scalar add instead of a fused offset-rhs temp);
            # the band's safety factor covers the extra rounding, and
            # only certified signs — not the f32 values — are reported.
            s32 = s32buf[:m]
            np.matmul(vec32, cols32[:, blk], out=s32)
            np.subtract(s32, rhs32[blk], out=s32)
            s32 += off32
            if sense < 0:
                np.negative(s32, out=s32)
            s32 -= limit32[blk]
            band = bandbuf[:m]
            np.multiply(norm32[blk], gvmax32, out=band)
            band += gmag32[blk]
            band += goff32
            mask_blk = mask[blk]
            np.greater(s32, np.float32(0.0), out=mask_blk)
            cand = candbuf[:m]
            np.abs(s32, out=s32)
            np.less_equal(s32, band, out=cand)
            fin = finbuf[:m]
            np.isfinite(s32, out=fin)
            np.logical_not(fin, out=fin)
            np.logical_or(cand, fin, out=cand)
            if cand.any():
                ci = np.flatnonzero(cand)
                at = sel[blk][ci] if fancy else ci + start
                sub = self._block_scores(*src64, sense, vec, offset, at)
                mask_blk[ci] = sub > 0.0
            blk_count = int(np.count_nonzero(mask_blk))
            count += blk_count
            if w is None and logw is None:
                violated += float(blk_count)
                if need_total:
                    total += float(stop - start)
            else:
                w_blk = w_scratch if logw is not None else w[blk]
                if blk_count:
                    # where= sums the masked weights without materialising
                    # the gathered subset (same elements, pairwise order
                    # differs — the sanctioned sum exception).
                    violated += float(np.sum(w_blk, where=mask_blk))
                if need_total:
                    total += float(w_blk.sum())
        return SweepStats(
            mask=mask,
            count=count,
            violated_weight=violated,
            total_weight=total if need_total else None,
        )

    def count_matrix(
        self, pack: Any, vecs: np.ndarray, offsets: np.ndarray, sel
    ) -> np.ndarray:
        # Pure blocked float64: multi-witness counts are exponent data for the
        # implicit-weight substrates, where a certified pass per witness
        # column buys little — the win here is avoiding the (n, W) margin
        # matrix temporaries.
        rows = select(pack.rows, sel)
        rhs = select(pack.rhs, sel)
        limit = select(pack.limit, sel)
        sense = pack.sense
        n = rows.shape[0]
        counts = np.empty(n, dtype=np.int64)
        for start in range(0, n, BLOCK_ROWS):
            blk = slice(start, min(n, start + BLOCK_ROWS))
            margins = rows[blk] @ vecs
            margins += offsets[None, :] - rhs[blk][:, None]
            if sense < 0:
                np.negative(margins, out=margins)
            counts[blk] = (margins > limit[blk][:, None]).sum(axis=1)
        return counts

    # ------------------------------------------------------------------ #
    # Linear-algebra / scan primitives
    # ------------------------------------------------------------------ #

    def solve_many(self, mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        mats = np.asarray(mats, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if mats.shape[0] == 0:
            return np.empty(rhs.shape, dtype=np.float64)
        # One batched LAPACK call over the whole stack; same per-matrix
        # factorisation as the looped reference, so solutions are bit-equal.
        return np.linalg.solve(mats, rhs[..., None])[..., 0]

    def first_violator(
        self, a: np.ndarray, b: np.ndarray, x: np.ndarray, eps: float
    ) -> Optional[int]:
        n = a.shape[0]
        for start in range(0, n, BLOCK_ROWS):
            blk = slice(start, min(n, start + BLOCK_ROWS))
            slack = a[blk] @ x
            slack -= b[blk]
            violated = slack > eps
            if violated.any():
                return start + int(np.argmax(violated))
        return None

    # ------------------------------------------------------------------ #
    # Sampling-side element-wise kernels
    # ------------------------------------------------------------------ #

    def gumbel_top_k(
        self, log_weights: np.ndarray, size: int, gen: np.random.Generator
    ) -> np.ndarray:
        arr = log_weights
        n = arr.size
        if n == 0:
            raise ValueError("total weight must be positive")
        lo = np.min(arr)
        if not lo > -np.inf:
            # Zero weights (or NaNs) present: take the reference path, which
            # filters them out before keying.
            return NumpyBackend.gumbel_top_k(self, arr, size, gen)
        size = min(size, n)
        if size == 0:
            return np.empty(0, dtype=int)
        if size >= n:
            gen.random(n)  # keep the uniform stream aligned with the reference
            return np.arange(n)
        u = gen.random(n)
        # Threshold selection on the raw uniforms.  A row at the minimum log
        # weight ``lo`` with ``u < tau`` has a key of at most
        # ``lo - log(-log tau)``, since the key rises with ``u``.  So when
        # the top ``size`` keys among the other rows (the boosted ones and
        # the ~2*size rows with ``u >= tau``) all beat that bound, they are
        # exactly the reference's global top ``size``: only the candidates
        # are keyed, with the reference's float pipeline.  The slack covers
        # scalar and SIMD ``log`` rounding apart by an ulp; a failed check
        # only widens the share, and at a share of 1 every row is keyed.
        share = 2.0 * size / n
        while share < 1.0:
            tau = 1.0 - share
            rows = _gumbel_candidates(arr, u, lo, tau)
            if rows.size >= size:
                keys = _gumbel_keys(arr[rows], u[rows])
                top = np.argpartition(keys, rows.size - size)[rows.size - size :]
                glog = math.log(-math.log(tau))
                slack = _KEY_SLACK * (abs(lo) + abs(glog) + 1.0)
                if keys[top].min() > lo - glog + slack:
                    return np.sort(rows[top])
            share *= 4.0
        keys = _gumbel_keys(arr, u)
        return np.sort(np.argpartition(keys, n - size)[n - size :])

    def exp_shift(self, values: np.ndarray, shift: float) -> np.ndarray:
        out = values - shift
        np.exp(out, out=out)
        return out
