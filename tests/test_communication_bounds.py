"""Closing the loop: measured coordinator bits vs the lower-bound curves.

The repo has two halves: the upper-bound algorithms (Theorems 1-3, now on
the communication fabric) and the lower-bound machinery (Theorems 7-10:
TCI, Augmented Indexing, the recursive hard distributions).  These tests tie
them together over a small grid of hard instances: the *measured*
``total_communication_bits`` of the fabric coordinator driver must sit above
the ``Omega(n^{1/(2 rounds)} / rounds^2)`` communication lower bound of
Theorem 10, and the two-party TCI protocols in :mod:`repro.lower_bounds`
must obey the same curve — the same currencies, measured the same way.
"""

from __future__ import annotations

import pytest

from repro import SolverConfig, solve
from repro.lower_bounds import (
    interactive_tci_protocol,
    sample_hard_instance,
    tci_to_linear_program,
)
from repro.lower_bounds.tci import lp_optimum_to_index

#: Bits per transmitted value, matching the default BitCostModel.
_BITS_PER_VALUE = 64


def communication_lower_bound_values(n: int, rounds: int) -> float:
    """The Theorem 10 curve in *values*: ``n^{1/(2r)} / r^2``."""
    r = max(1, rounds)
    return (n ** (1.0 / (2 * r))) / (r ** 2)


@pytest.mark.parametrize("branching", [8, 14, 20])
@pytest.mark.parametrize("r", [1, 2])
def test_coordinator_bits_stay_above_lower_bound(branching, r):
    hard = sample_hard_instance(branching=branching, rounds=2, seed=branching)
    lp = tci_to_linear_program(hard.instance)
    n = lp.num_constraints
    result = solve(
        lp,
        model="coordinator",
        num_sites=2,
        r=r,
        seed=3,
        sample_size=max(8, n // 4),
        success_threshold=0.05,
        max_iterations=500,
    )
    # The upper bound must solve the instance ...
    decoded = lp_optimum_to_index(result.witness[0], hard.instance.length)
    assert decoded == hard.answer
    # ... and its measured communication must dominate the lower bound.
    rounds = max(1, result.resources.rounds)
    lower_values = communication_lower_bound_values(n, rounds)
    measured_values = result.resources.total_communication_bits / _BITS_PER_VALUE
    assert measured_values >= lower_values


@pytest.mark.parametrize("branching", [8, 14, 20])
@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_tci_protocol_bits_stay_above_lower_bound(branching, rounds):
    hard = sample_hard_instance(branching=branching, rounds=2, seed=branching + 1)
    protocol = interactive_tci_protocol(hard.instance, rounds=rounds)
    assert protocol.answer == hard.instance.solve()
    lower_values = communication_lower_bound_values(
        hard.instance.length, max(1, protocol.rounds)
    )
    assert protocol.total_bits / _BITS_PER_VALUE >= lower_values


def test_fabric_and_protocol_measure_the_same_currency():
    """One instance, both halves: the solver's measured bits and the
    protocol's transcript bits are directly comparable (same cost model),
    and the general-purpose solver pays at least as much as the specialised
    two-party protocol."""
    hard = sample_hard_instance(branching=20, rounds=2, seed=9)
    lp = tci_to_linear_program(hard.instance)
    params = SolverConfig(
        r=2, sample_size=100, success_threshold=0.05, max_iterations=500
    )
    result = solve(
        lp,
        model="coordinator",
        num_sites=2,
        r=2,
        seed=4,
        sample_size=params.sample_size,
        success_threshold=params.success_threshold,
        max_iterations=params.max_iterations,
    )
    protocol = interactive_tci_protocol(hard.instance, rounds=2)
    assert result.resources.total_communication_bits > 0
    assert protocol.total_bits > 0
    assert result.resources.total_communication_bits >= protocol.total_bits
