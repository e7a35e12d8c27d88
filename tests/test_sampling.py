"""Unit, statistical, and property-based tests for the weighted-sampling primitives."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import (
    _TINY_UNIFORM,
    multinomial_split,
    normalise_weights,
    weighted_sample_without_replacement,
)


class ExponentialKeyReservoir:
    """One-at-a-time Efraimidis-Spirakis reservoir: the oracle for the batch keys.

    Offering items one by one, each draws ``u`` and keeps the
    ``capacity`` largest keys ``log(u) / w`` in a min-heap.  The library
    draws the same keys in batches (``exponential_keys``, chunk by chunk in
    the stream reader), so the two must agree on the same randomness.
    """

    def __init__(self, capacity, rng):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rng = np.random.default_rng(rng)
        # Heap of (key, tiebreak, item); the root is the smallest (worst) key.
        self._heap = []
        self.items_seen = 0

    def offer(self, item, weight):
        self.items_seen += 1
        if weight == 0:
            return
        key = np.log(max(self.rng.random(), _TINY_UNIFORM)) / weight
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, (key, self.items_seen, item))
        elif key > self._heap[0][0]:
            heapq.heapreplace(self._heap, (key, self.items_seen, item))

    def sample(self):
        return [item for _, _, item in self._heap]

    def __len__(self):
        return len(self._heap)


class TestNormaliseWeights:
    def test_sums_to_one(self):
        probs = normalise_weights([1.0, 3.0, 6.0])
        assert probs.sum() == pytest.approx(1.0)
        assert probs[2] == pytest.approx(0.6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalise_weights([1.0, -0.5])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            normalise_weights([0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalise_weights([])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            normalise_weights(np.ones((2, 2)))


class TestWithoutReplacement:
    def test_distinct_indices(self):
        idx = weighted_sample_without_replacement([1.0] * 20, 10, rng=0)
        assert len(set(idx.tolist())) == 10

    def test_size_capped_at_positive_support(self):
        idx = weighted_sample_without_replacement([1.0, 0.0, 2.0], 10, rng=0)
        assert set(idx.tolist()) == {0, 2}

    def test_heavier_items_more_likely_included(self):
        weights = np.ones(100)
        weights[0] = 50.0
        hits = 0
        for seed in range(200):
            idx = weighted_sample_without_replacement(weights, 5, rng=seed)
            hits += int(0 in set(idx.tolist()))
        # Item 0 carries ~1/3 of the weight; inclusion should be very common.
        assert hits > 120

    def test_zero_size(self):
        idx = weighted_sample_without_replacement([1.0, 1.0], 0, rng=0)
        assert idx.size == 0

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            weighted_sample_without_replacement([0.0, 0.0], 1, rng=0)


class TestMultinomialSplit:
    def test_counts_sum_to_size(self):
        counts = multinomial_split([1.0, 2.0, 3.0], 100, rng=0)
        assert counts.sum() == 100
        assert counts.shape == (3,)

    def test_proportionality(self):
        counts = multinomial_split([1.0, 9.0], 50_000, rng=1)
        assert abs(counts[1] / 50_000 - 0.9) < 0.01

    def test_zero_size(self):
        counts = multinomial_split([1.0, 1.0], 0, rng=0)
        assert counts.sum() == 0


class TestExponentialKeyReservoir:
    def test_capacity_respected(self):
        reservoir = ExponentialKeyReservoir(5, rng=0)
        for i in range(100):
            reservoir.offer(i, 1.0)
        assert len(reservoir) == 5
        assert len(set(reservoir.sample())) == 5

    def test_fewer_items_than_capacity(self):
        reservoir = ExponentialKeyReservoir(10, rng=0)
        for i in range(3):
            reservoir.offer(i, 1.0)
        assert sorted(reservoir.sample()) == [0, 1, 2]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ExponentialKeyReservoir(0, rng=0)

    def test_heavy_item_usually_kept(self):
        hits = 0
        for seed in range(300):
            reservoir = ExponentialKeyReservoir(3, rng=seed)
            for i in range(50):
                reservoir.offer(i, 100.0 if i == 17 else 1.0)
            hits += int(17 in reservoir.sample())
        assert hits > 270


class _ZeroUniformGenerator(np.random.Generator):
    """A generator whose uniform draws are exactly 0.0 (the degenerate edge).

    ``Generator.random`` draws from the half-open interval ``[0, 1)``, so 0.0
    is a legal (if astronomically rare) return value; without clamping it
    maps to a ``-inf`` exponential key.
    """

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def random(self, size=None, dtype=np.float64, out=None):
        if size is None:
            return 0.0
        return np.zeros(size, dtype=dtype)


class TestZeroUniformRegression:
    def test_reservoir_keys_stay_finite(self):
        reservoir = ExponentialKeyReservoir(capacity=3, rng=_ZeroUniformGenerator())
        for i in range(10):
            reservoir.offer(i, 1.0 + i)
        assert len(reservoir) == 3
        assert all(np.isfinite(key) for key, _, _ in reservoir._heap)

    def test_reservoir_prefers_heavy_items_even_at_zero(self):
        # With the clamp, key = log(tiny)/w is monotone in w, so the heaviest
        # items must win; with -inf keys the sample would be arbitrary.
        reservoir = ExponentialKeyReservoir(capacity=2, rng=_ZeroUniformGenerator())
        weights = [1.0, 1000.0, 2.0, 500.0, 3.0]
        for i, w in enumerate(weights):
            reservoir.offer(i, w)
        assert sorted(reservoir.sample()) == [1, 3]

    def test_batch_sampler_prefers_heavy_items_even_at_zero(self):
        idx = weighted_sample_without_replacement(
            [1.0, 1000.0, 2.0, 500.0, 3.0], 2, rng=_ZeroUniformGenerator()
        )
        assert sorted(idx.tolist()) == [1, 3]

    def test_batch_sampler_keys_finite_for_all_zero_draws(self):
        # Must not warn (log of zero) and must return a valid distinct sample.
        with np.errstate(divide="raise"):
            idx = weighted_sample_without_replacement(
                np.ones(20), 5, rng=_ZeroUniformGenerator()
            )
        assert len(set(idx.tolist())) == 5


class TestReservoirHeap:
    def test_matches_batch_sampler_on_same_randomness(self):
        """The heap reservoir consumes one uniform per positive-weight item in
        stream order, exactly like the batch Efraimidis-Spirakis sampler, so
        the two must produce the same sample from the same seed."""
        rng = np.random.default_rng(90)
        weights = rng.uniform(0.1, 10.0, size=200)
        reservoir = ExponentialKeyReservoir(12, rng=np.random.default_rng(7))
        for i, w in enumerate(weights):
            reservoir.offer(i, float(w))
        batch = weighted_sample_without_replacement(
            weights, 12, rng=np.random.default_rng(7)
        )
        assert sorted(reservoir.sample()) == sorted(batch.tolist())

    def test_heap_holds_top_keys(self):
        # The reservoir consumes one uniform per offered item, so the keys it
        # saw can be recomputed independently from the same seed; the sample
        # must be exactly the argmax-5 of those keys.
        weights = np.linspace(0.5, 4.0, 100)
        reservoir = ExponentialKeyReservoir(5, rng=np.random.default_rng(3))
        for i, w in enumerate(weights):
            reservoir.offer(i, float(w))
        keys = np.log(np.random.default_rng(3).random(100)) / weights
        expected = set(np.argsort(keys)[::-1][:5].tolist())
        assert set(reservoir.sample()) == expected


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=2, max_size=40),
    size=st.integers(min_value=1, max_value=10),
    seed=st.integers(0, 1000),
)
def test_without_replacement_properties(weights, size, seed):
    """Property: the sample is sorted, distinct, in range, and <= min(size, n)."""
    idx = weighted_sample_without_replacement(weights, size, rng=seed)
    assert len(set(idx.tolist())) == idx.size
    assert idx.size == min(size, len(weights))
    assert np.all(np.diff(idx) > 0)
    assert idx.min() >= 0 and idx.max() < len(weights)
