"""E2 — Result 1 / Theorems 2 and 4, coordinator model.

Claim: ``O(d * r)`` rounds and ``O~(n^{1/r} + k) * poly(d, log n)`` total
communication.  The benchmark sweeps ``n``, ``k`` and ``r`` and records rounds
and total communication bits; communication should grow sub-linearly in ``n``
and only additively in ``k``.
"""

from __future__ import annotations

import pytest

from repro.workloads import random_polytope_lp

from conftest import emit_row, facade_solve, record


@pytest.mark.parametrize("n", [2000, 8000])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_coordinator_lp_rounds_and_communication(benchmark, n, r):
    instance = random_polytope_lp(n, 2, seed=n * 7 + r)

    def run():
        return facade_solve(instance.problem, "coordinator", r=r, seed=5, num_sites=8)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    d = instance.problem.dimension
    input_bits = n * instance.problem.bit_size()
    emit_row(
        "E2-coordinator",
        n=n,
        d=d,
        k=8,
        r=r,
        rounds=result.resources.rounds,
        round_budget=12 * (d + 1) * r,
        comm_kbits=result.resources.total_communication_bits // 1000,
        comm_fraction_of_input=round(
            result.resources.total_communication_bits / input_bits, 3
        ),
    )
    record(
        benchmark,
        n=n,
        r=r,
        rounds=result.resources.rounds,
        communication_bits=result.resources.total_communication_bits,
    )
    assert result.resources.rounds <= 12 * (d + 1) * r


@pytest.mark.parametrize("num_sites", [2, 4, 16])
def test_coordinator_lp_site_sweep(benchmark, num_sites):
    """Communication grows only additively in the number of sites k."""
    instance = random_polytope_lp(6000, 2, seed=num_sites)

    def run():
        return facade_solve(
            instance.problem, "coordinator", r=2, seed=9, num_sites=num_sites
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_row(
        "E2-coordinator-sites",
        n=6000,
        k=num_sites,
        rounds=result.resources.rounds,
        comm_kbits=result.resources.total_communication_bits // 1000,
    )
    record(benchmark, k=num_sites, communication_bits=result.resources.total_communication_bits)
