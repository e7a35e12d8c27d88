"""The ``fused`` NumPy-blocked backend.

The backend evaluates the pack primitives in row blocks of
:data:`~repro.kernels.base.BLOCK_ROWS`, so per-call temporaries are
block-sized instead of ``n``-sized and the sweep streams each row of the
constraint matrix exactly once.  Blocked matrix products are bit-identical
to the reference's full products (same per-row dot, same alignment class per
block), so masks, counts, and scores match the ``numpy`` backend exactly.

The margin sweep additionally runs in float32 with float64
re-certification: scores are first computed from cached float32 mirrors of
the pack (half the memory traffic of a float64 pass); any row whose float32
score lands inside a conservative error band around the threshold — or is
non-finite — is recomputed in float64.  The band

    band_j = gamma * (||rows_j||_1 * max|vec| + |rhs_j| + |limit_j| + |offset|),
    gamma  = (4 d + 64) * 2^-23

over-estimates the worst-case float32 evaluation error (a standard
forward-error bound with a ~4x safety factor covering the band's own float32
rounding; a tiny absolute floor guards the subnormal range), so the sign of
every certified float32 score agrees with the float64 score and the
resulting masks are **bit-identical** to the reference.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .base import BLOCK_ROWS, KernelBackend, SweepStats, _TINY_UNIFORM, select
from .reference import NumpyBackend

__all__ = ["FusedBackend"]

#: Absolute floor added to the certification band so that it never rounds to
#: zero in the float32 subnormal range while the true error is non-zero.
_BAND_FLOOR = np.float32(1e-35)


class _Float32Mirror:
    """Per-pack float32 mirrors plus the certification-band ingredients."""

    __slots__ = ("rows", "rhs", "limit", "norm1", "gmag")

    def __init__(self, pack: Any) -> None:
        rows64 = pack.rows
        n, d = rows64.shape
        self.rows = np.empty((n, d), dtype=np.float32)
        self.norm1 = np.empty(n, dtype=np.float32)
        # Cast and reduce block-by-block: the float64 rows are streamed once
        # and the |row| reduction runs on the cache-resident float32 block,
        # instead of materialising an n x d |rows| temporary.  The band's 4x
        # safety factor absorbs the (d+1) ulp difference between this
        # float32 1-norm and an exact float64 one.
        absbuf = np.empty((min(BLOCK_ROWS, max(n, 1)), d), dtype=np.float32)
        for start in range(0, n, BLOCK_ROWS):
            blk = slice(start, min(n, start + BLOCK_ROWS))
            block32 = self.rows[blk]
            np.copyto(block32, rows64[blk], casting="same_kind")
            scratch = absbuf[: block32.shape[0]]
            np.abs(block32, out=scratch)
            self.norm1[blk] = scratch.sum(axis=1)
        self.rhs = pack.rhs.astype(np.float32)
        self.limit = pack.limit.astype(np.float32)
        # gamma is folded into the cached magnitude term (and, per sweep,
        # into the norm/offset scalars), so the band needs three block passes
        # instead of five.  The regrouped rounding differs from the literal
        # gamma * (...) formula by a few ulps, which the band's safety
        # factor absorbs.
        gamma = _band_gamma(d)
        self.gmag = (np.abs(self.rhs) + np.abs(self.limit)) * gamma


def _float32_mirror(pack: Any) -> _Float32Mirror:
    cache = pack.kernel_cache()
    mirror = cache.get("float32_mirror")
    if mirror is None:
        mirror = _Float32Mirror(pack)
        cache["float32_mirror"] = mirror
    return mirror


def _band_gamma(num_coefficients: int) -> np.float32:
    return np.float32((4.0 * max(1, num_coefficients) + 64.0) * 2.0**-23)


class FusedBackend(KernelBackend):
    """Blocked sweeps with the certified-fp32 margin pass."""

    name = "fused"

    # ------------------------------------------------------------------ #
    # Constraint-pack primitives
    # ------------------------------------------------------------------ #

    @staticmethod
    def _block_scores(rows, rhs, limit, sense, vec, offset, blk, out) -> None:
        """Scores of one row block written into ``out`` (reference bit pattern)."""
        m = rows[blk] @ vec
        m += offset - rhs[blk]
        if sense < 0:
            np.negative(m, out=m)
        m -= limit[blk]
        out[blk] = m

    def scores(self, pack: Any, encoded: tuple[np.ndarray, float], sel) -> np.ndarray:
        vec, offset = encoded
        vec = np.asarray(vec, dtype=np.float64)
        offset = float(offset)
        rows = select(pack.rows, sel)
        rhs = select(pack.rhs, sel)
        limit = select(pack.limit, sel)
        n = rows.shape[0]
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, BLOCK_ROWS):
            blk = slice(start, min(n, start + BLOCK_ROWS))
            self._block_scores(rows, rhs, limit, pack.sense, vec, offset, blk, out)
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
        rows32 = select(mirror.rows, sel)
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
        n = rows32.shape[0]
        # float64 arrays stay un-gathered for fancy selectors: only the
        # (few) band candidates are re-fetched at full precision.
        rows64 = None if fancy else select(pack.rows, sel)
        rhs64 = None if fancy else select(pack.rhs, sel)
        limit64 = None if fancy else select(pack.limit, sel)

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
            np.matmul(rows32[blk], vec32, out=s32)
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
                if rows64 is None:
                    gidx = sel[blk][ci]
                    sub = pack.rows[gidx] @ vec
                    sub += offset - pack.rhs[gidx]
                    if sense < 0:
                        np.negative(sub, out=sub)
                    sub -= pack.limit[gidx]
                else:
                    sub = rows64[blk][ci] @ vec
                    sub += offset - rhs64[blk][ci]
                    if sense < 0:
                        np.negative(sub, out=sub)
                    sub -= limit64[blk][ci]
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
        if bool(np.max(arr) == lo):
            # Uniform weights (every draw before the first boost): the key
            # arr + g(u) is a strictly increasing function of u alone, so
            # selecting on the raw uniforms — seeded by a fully-ranked
            # prefix, then two staged filter passes that keep only rows
            # above the running size-th best — returns the reference's
            # top-``size`` set without any keying passes.
            seed_len = min(n, max(BLOCK_ROWS, 4 * size))
            pool_idx = np.arange(seed_len)
            pool_rank = u[:seed_len]
            top = np.argpartition(pool_rank, seed_len - size)[seed_len - size :]
            pool_idx, pool_rank = pool_idx[top], pool_rank[top]
            start = seed_len
            while start < n:
                stop = n if start > seed_len else min(n, 16 * seed_len)
                cand = np.flatnonzero(u[start:stop] >= pool_rank.min())
                if cand.size:
                    cand += start
                    pool_idx = np.concatenate([pool_idx, cand])
                    pool_rank = np.concatenate([pool_rank, u[cand]])
                    if size < pool_idx.size:
                        top = np.argpartition(pool_rank, pool_idx.size - size)[
                            pool_idx.size - size :
                        ]
                        pool_idx, pool_rank = pool_idx[top], pool_rank[top]
                start = stop
            return np.sort(pool_idx)
        # Same uniform stream and the same key values as the reference, but
        # keyed block-by-block in a cache-resident scratch buffer and
        # selected by a running threshold instead of per-block partitions:
        # the first block is partitioned once to seed a pool of the best
        # ``size`` keys; every later block only compares its keys against
        # the pool's current size-th best (any global top-``size`` key beats
        # it, so the filter keeps a superset) and the few survivors are
        # merged into the pool.  One final partition of the pool recovers
        # exactly the reference's global top-``size``.
        block = max(BLOCK_ROWS, 4 * size)
        kbuf = np.empty(min(block, n), dtype=np.float64)
        pool_idx: Optional[np.ndarray] = None
        pool_keys: Optional[np.ndarray] = None
        threshold = -np.inf
        for start in range(0, n, block):
            stop = min(n, start + block)
            keys = kbuf[: stop - start]
            np.maximum(u[start:stop], _TINY_UNIFORM, out=keys)
            np.log(keys, out=keys)
            np.negative(keys, out=keys)
            np.log(keys, out=keys)
            np.subtract(arr[start:stop], keys, out=keys)
            m = stop - start
            if pool_idx is None:
                if size < m:
                    top = np.argpartition(keys, m - size)[m - size :]
                    pool_idx = top + start
                    pool_keys = keys[top]
                    threshold = float(pool_keys.min())
                else:
                    pool_idx = np.arange(start, stop)
                    pool_keys = keys.copy()
                continue
            cand = np.flatnonzero(keys >= threshold)
            if cand.size:
                pool_idx = np.concatenate([pool_idx, cand + start])
                pool_keys = np.concatenate([pool_keys, keys[cand]])
                if pool_idx.size > 4 * size:
                    top = np.argpartition(pool_keys, pool_idx.size - size)[
                        pool_idx.size - size :
                    ]
                    pool_idx, pool_keys = pool_idx[top], pool_keys[top]
                    threshold = float(pool_keys.min())
        if size < pool_idx.size:
            top = np.argpartition(pool_keys, pool_idx.size - size)[
                pool_idx.size - size :
            ]
            pool_idx = pool_idx[top]
        return np.sort(pool_idx)

    def exp_shift(self, values: np.ndarray, shift: float) -> np.ndarray:
        out = values - shift
        np.exp(out, out=out)
        return out
