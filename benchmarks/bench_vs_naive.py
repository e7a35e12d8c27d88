"""E7 — Communication of the coordinator algorithm vs the ship-everything baseline.

The naive coordinator protocol ships all ``n`` constraints (``Theta(n)``
communication); Theorem 2 ships ``O~(n^{1/r} + k)``.  The benchmark sweeps
``n`` and reports the ratio, which should grow with ``n``.
"""

from __future__ import annotations

import pytest

from repro.algorithms import ship_all_coordinator
from repro.workloads import random_polytope_lp

from conftest import emit_row, facade_solve, record


@pytest.mark.parametrize("n", [2000, 8000, 16000])
def test_coordinator_vs_ship_all(benchmark, n):
    instance = random_polytope_lp(n, 2, seed=n)

    def run():
        naive = ship_all_coordinator(instance.problem, num_sites=8)
        clever = facade_solve(instance.problem, "coordinator", r=2, seed=13, num_sites=8)
        return naive, clever

    naive, clever = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = naive.resources.total_communication_bits / max(
        1, clever.resources.total_communication_bits
    )
    emit_row(
        "E7-vs-naive",
        n=n,
        naive_kbits=naive.resources.total_communication_bits // 1000,
        clarkson_kbits=clever.resources.total_communication_bits // 1000,
        savings_ratio=round(ratio, 2),
    )
    record(benchmark, n=n, savings_ratio=ratio)
    assert clever.resources.total_communication_bits < naive.resources.total_communication_bits
    assert abs(clever.value.objective - naive.value.objective) <= 1e-4 * max(
        1.0, abs(naive.value.objective)
    )
