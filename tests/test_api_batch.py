"""Batch layer: deterministic seeding, worker independence, aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BatchResult, solve_many
from repro.core.exceptions import InvalidConfigError
from repro.core.result import ResourceUsage
from repro.workloads import random_feasible_lp, random_polytope_lp

FAST = dict(sample_size=250, success_threshold=0.02, max_iterations=500)


def _problems(count=6, n=700):
    return [random_polytope_lp(n, 2, seed=100 + i).problem for i in range(count)]


def _fingerprint(result):
    return (
        float(result.value.objective),
        result.basis_indices,
        result.iterations,
        result.resources.passes,
        result.resources.space_peak_items,
        result.resources.rounds,
        result.resources.total_communication_bits,
    )


# --------------------------------------------------------------------------- #
# Deterministic seeding
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("model", ["sequential", "streaming"])
def test_solve_many_identical_for_any_worker_count(model):
    """Regression: per-instance rngs come from SeedSequence.spawn, so the
    results are bit-identical no matter how the work is scheduled."""
    problems = _problems()
    serial = solve_many(problems, model=model, max_workers=1, root_seed=7, **FAST)
    threaded = solve_many(problems, model=model, max_workers=4, root_seed=7, **FAST)
    assert len(serial) == len(threaded) == len(problems)
    for a, b in zip(serial, threaded):
        assert _fingerprint(a) == _fingerprint(b)


def test_solve_many_reproducible_from_root_seed():
    problems = _problems(count=3)
    first = solve_many(problems, model="sequential", root_seed=1, **FAST)
    again = solve_many(problems, model="sequential", root_seed=1, **FAST)
    for x, y in zip(first, again):
        assert _fingerprint(x) == _fingerprint(y)


def test_solve_many_config_seed_roots_the_derivation():
    """Without an explicit root_seed, an integer config seed makes the batch
    reproducible (regression: the seed used to be silently ignored)."""
    problems = _problems(count=3)
    a = solve_many(problems, model="sequential", seed=42, **FAST)
    b = solve_many(problems, model="sequential", seed=42, **FAST)
    for x, y in zip(a, b):
        assert _fingerprint(x) == _fingerprint(y)
    # an explicit root_seed wins over the config seed
    c = solve_many(problems, model="sequential", seed=42, root_seed=7, **FAST)
    d = solve_many(problems, model="sequential", root_seed=7, **FAST)
    for x, y in zip(c, d):
        assert _fingerprint(x) == _fingerprint(y)


def test_solve_many_same_instance_same_optimum():
    problem = random_feasible_lp(700, 2, seed=9).problem
    batch = solve_many(
        [problem, problem, problem], model="sequential", root_seed=3, **FAST
    )
    objectives = {round(float(r.value.objective), 9) for r in batch}
    assert len(objectives) == 1  # same instance => same optimum per run


def test_solve_many_empty_and_validation():
    batch = solve_many([], model="sequential")
    assert len(batch) == 0
    assert batch.resources_total() == ResourceUsage()
    with pytest.raises(InvalidConfigError, match="max_workers"):
        solve_many(_problems(2), model="sequential", max_workers=0)


# --------------------------------------------------------------------------- #
# BatchResult container + aggregation
# --------------------------------------------------------------------------- #


def test_batch_result_is_a_sequence():
    problems = _problems(count=3)
    batch = solve_many(problems, model="streaming", root_seed=5, **FAST)
    assert isinstance(batch, BatchResult)
    assert len(batch) == 3
    assert batch[0] is batch.results[0]
    assert [r for r in batch] == batch.results
    assert batch[1:] == batch.results[1:]
    assert batch.model == "streaming"
    summary = batch.summary()
    assert summary["instances"] == 3
    assert summary["total_passes"] == sum(r.resources.passes for r in batch)
    assert summary["peak_space_items"] == max(
        r.resources.space_peak_items for r in batch
    )


def test_batch_resource_summaries():
    problems = _problems(count=4)
    batch = solve_many(problems, model="coordinator", root_seed=11, num_sites=3, **FAST)
    total = batch.resources_total()
    peak = batch.resources_peak()
    assert total.rounds == sum(r.resources.rounds for r in batch)
    assert total.total_communication_bits == sum(
        r.resources.total_communication_bits for r in batch
    )
    assert peak.rounds == max(r.resources.rounds for r in batch)
    assert total.max_message_bits == peak.max_message_bits  # peaks never sum


# --------------------------------------------------------------------------- #
# ResourceUsage.aggregate
# --------------------------------------------------------------------------- #


def _usage(scale):
    return ResourceUsage(
        passes=2 * scale,
        space_peak_items=10 * scale,
        space_peak_bits=100 * scale,
        rounds=3 * scale,
        total_communication_bits=1000 * scale,
        max_message_bits=50 * scale,
        max_machine_load_bits=70 * scale,
        machine_count=4 * scale,
    )


def test_aggregate_sum_mode():
    merged = ResourceUsage.aggregate([_usage(1), _usage(2)], mode="sum")
    assert merged.passes == 6
    assert merged.space_peak_items == 30
    assert merged.space_peak_bits == 300
    assert merged.rounds == 9
    assert merged.total_communication_bits == 3000
    assert merged.machine_count == 12
    # per-message / per-machine peaks aggregate by max even in sum mode
    assert merged.max_message_bits == 100
    assert merged.max_machine_load_bits == 140


def test_aggregate_max_mode():
    merged = ResourceUsage.aggregate([_usage(1), _usage(3), _usage(2)], mode="max")
    assert merged.passes == 6
    assert merged.space_peak_items == 30
    assert merged.rounds == 9
    assert merged.total_communication_bits == 3000
    assert merged.max_message_bits == 150
    assert merged.max_machine_load_bits == 210
    assert merged.machine_count == 12


def test_aggregate_empty_and_invalid_mode():
    assert ResourceUsage.aggregate([], mode="sum") == ResourceUsage()
    assert ResourceUsage.aggregate([], mode="max") == ResourceUsage()
    with pytest.raises(ValueError, match="mode"):
        ResourceUsage.aggregate([_usage(1)], mode="median")


def test_derived_seeds_are_position_stable():
    from repro.api.batch import derive_instance_seeds

    five = derive_instance_seeds(17, 5)
    three = derive_instance_seeds(17, 3)
    for a, b in zip(three, five):
        assert np.random.default_rng(a).integers(1 << 30) == np.random.default_rng(
            b
        ).integers(1 << 30)
    assert derive_instance_seeds(17, 0) == []
