"""V1 — vectorised violation oracles on the streaming hot path.

The streaming driver's per-iteration cost is dominated by evaluating the
implicit weights of Section 3.2: every constraint's weight is
``boost ** a_i`` where ``a_i`` counts the stored bases it violates.  The
pre-engine implementation paid ``O(n * bases)`` interpreted ``violates``
calls per pass; the engine substrate asks the problem for the whole
exponent vector in one ``violation_count_matrix`` NumPy sweep.

This benchmark measures exactly that evaluation — all constraints against
all stored bases — at ``n = 10^5`` and asserts the vectorised path is at
least 5x faster than the scalar loop (in practice it is orders of
magnitude faster).  A second benchmark shows the end-to-end effect on a
full streaming solve.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.workloads import random_polytope_lp

from conftest import emit_row, facade_solve, record

REQUIRED_SPEEDUP = 5.0


def _scalar_exponents(problem, witnesses, indices):
    """The pre-engine scalar path: one interpreted call per (constraint, basis)."""
    return np.asarray(
        [
            sum(1 for witness in witnesses if problem.violates(witness, int(i)))
            for i in indices
        ],
        dtype=np.int64,
    )


def _stored_bases(problem, count, rng):
    """Witnesses resembling the stored bases of successful iterations."""
    witnesses = []
    for _ in range(count):
        subset = np.sort(rng.choice(problem.num_constraints, size=60, replace=False))
        witnesses.append(problem.solve_subset(subset).witness)
    return witnesses


@pytest.mark.parametrize("n", [100_000])
def test_streaming_implicit_weight_speedup(benchmark, n):
    instance = random_polytope_lp(n, 2, seed=97)
    problem = instance.problem
    witnesses = _stored_bases(problem, count=6, rng=np.random.default_rng(5))
    indices = problem.all_indices()

    vectorized = benchmark.pedantic(
        lambda: problem.violation_count_matrix(witnesses, indices),
        rounds=3,
        iterations=1,
    )

    start = time.perf_counter()
    scalar = _scalar_exponents(problem, witnesses, indices)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    problem.violation_count_matrix(witnesses, indices)
    vector_seconds = time.perf_counter() - start

    assert np.array_equal(vectorized, scalar)
    speedup = scalar_seconds / max(vector_seconds, 1e-9)
    emit_row(
        "V1-implicit-weights",
        n=n,
        bases=len(witnesses),
        scalar_seconds=round(scalar_seconds, 4),
        vector_seconds=round(vector_seconds, 6),
        speedup=round(speedup, 1),
    )
    record(benchmark, n=n, scalar_seconds=scalar_seconds, speedup=speedup)
    assert speedup >= REQUIRED_SPEEDUP


def test_streaming_solve_end_to_end(benchmark):
    """Full streaming solve at n = 10^5 (the scale the scalar path choked on)."""
    n = 100_000
    instance = random_polytope_lp(n, 2, seed=98)

    result = benchmark.pedantic(
        lambda: facade_solve(instance.problem, "streaming", r=2, seed=17),
        rounds=1,
        iterations=1,
    )
    emit_row(
        "V1-streaming-end-to-end",
        n=n,
        passes=result.resources.passes,
        space_items=result.resources.space_peak_items,
        objective=round(result.value.objective, 6),
    )
    record(benchmark, n=n, passes=result.resources.passes)
