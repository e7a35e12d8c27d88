"""Basis-solve cache: unit behaviour, engine integration, and the
no-cross-call-state-leakage regression.

The cache is per-engine (= per-run) state, so repeated ``solve()`` calls with
the same config and seed must stay bit-identical — including through the
``solve_many`` thread pool — and disabling the cache must not change results
(``solve_subset`` is pure, so a hit only skips recomputation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolverConfig, solve, solve_many
from repro.core.engine import BasisCache, ClarksonEngine, EngineConfig
from repro.core.lptype import BasisResult
from repro.problems.meb import MinimumEnclosingBall
from repro.workloads import random_polytope_lp, uniform_ball_points

from tests.conftest import ScriptedModel


class TestBasisCacheUnit:
    def test_hit_and_miss_counting(self):
        cache = BasisCache(capacity=4)
        basis = BasisResult(indices=(1, 2), value=1.0, witness=None, subset_size=3)
        assert cache.get((1, 2, 3)) is None
        cache.put((1, 2, 3), basis)
        assert cache.get((1, 2, 3)) is basis
        assert cache.hits == 1
        assert cache.misses == 1

    def test_record_seeds_the_basis_key(self):
        cache = BasisCache(capacity=4)
        basis = BasisResult(indices=(5, 2), value=2.0, witness=None, subset_size=4)
        cache.record((1, 2, 3, 5), basis)
        entry = cache.get((2, 5))
        assert entry is not None
        assert entry.value == basis.value
        assert entry.subset_size == 2

    def test_fifo_eviction_respects_capacity(self):
        cache = BasisCache(capacity=2)
        basis = BasisResult(indices=(), value=0.0, witness=None)
        for key in ((1,), (2,), (3,)):
            cache.put(key, basis)
        assert len(cache) == 2
        assert cache.get((1,)) is None  # evicted first-in
        assert cache.get((3,)) is not None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BasisCache(capacity=0)


class TestEngineIntegration:
    def test_repeated_sample_hits_cache(self, medium_lp):
        # The scripted model draws the same sample every iteration, so only
        # the first iteration's solve misses the cache.
        model = ScriptedModel(medium_lp, [(3, 0.5), (3, 0.5), (0, 0.0)], np.arange(30))
        engine = ClarksonEngine(
            model, EngineConfig(sample_size=30, epsilon=0.1, budget=10)
        )
        outcome = engine.run()
        assert outcome.cache_misses == 1
        assert outcome.cache_hits == 2


def _problems():
    return {
        "lp": random_polytope_lp(3000, 2, seed=5).problem,
        "meb": MinimumEnclosingBall(uniform_ball_points(3000, 2, seed=6)),
    }


def _config(problem, **overrides):
    return SolverConfig.practical(problem, r=2, seed=123, **overrides)


def _assert_identical(first, second):
    assert first.value == second.value
    assert first.basis_indices == second.basis_indices
    assert first.iterations == second.iterations
    assert first.successful_iterations == second.successful_iterations
    first_w = getattr(first.witness, "center", first.witness)
    second_w = getattr(second.witness, "center", second.witness)
    np.testing.assert_array_equal(np.asarray(first_w), np.asarray(second_w))
    assert first.resources.basis_cache_hits == second.resources.basis_cache_hits
    assert first.resources.basis_cache_misses == second.resources.basis_cache_misses


@pytest.mark.parametrize("model", ["sequential", "streaming", "coordinator", "mpc"])
@pytest.mark.parametrize("family", ["lp", "meb"])
def test_repeated_solve_bit_identical_with_cache(model, family):
    """No cross-call state leakage: same config + seed => identical results."""
    problem = _problems()[family]
    config = _config(problem)
    first = solve(problem, model=model, config=config)
    second = solve(problem, model=model, config=config)
    assert first.resources.basis_cache_misses > 0  # the cache was live
    _assert_identical(first, second)


def test_cache_toggle_does_not_change_results(monkeypatch):
    problem = _problems()["lp"]
    cached = solve(problem, model="sequential", config=_config(problem))
    # A cache whose lookups always miss solves every sample afresh.
    lookup = BasisCache.get

    def miss(self, key):
        lookup(self, key)
        return None

    monkeypatch.setattr(BasisCache, "get", miss)
    uncached = solve(problem, model="sequential", config=_config(problem))
    assert uncached.resources.basis_cache_hits == 0
    assert cached.value == uncached.value
    assert cached.iterations == uncached.iterations
    np.testing.assert_allclose(
        np.asarray(cached.witness), np.asarray(uncached.witness)
    )


@pytest.mark.parametrize("model", ["sequential", "streaming"])
def test_solve_many_workers_bit_identical(model):
    """The thread pool must not leak cache or RNG state across instances."""
    problems = [random_polytope_lp(2000, 2, seed=s).problem for s in (1, 2, 3, 4)]
    serial = solve_many(problems, model=model, seed=7, max_workers=1)
    threaded = solve_many(problems, model=model, seed=7, max_workers=4)
    for first, second in zip(serial, threaded):
        _assert_identical(first, second)
