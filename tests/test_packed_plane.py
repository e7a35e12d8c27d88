"""Property tests pinning the packed constraint data plane to the scalar
reference semantics.

The packed :class:`~repro.core.lptype.ConstraintPack` is the hot path of
every driver's violation tests; these tests guarantee it can never drift from
the per-constraint ``problem.violates`` reference across all four problem
families and random witnesses (including near-boundary witnesses produced by
real subset solves).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lptype import ConstraintPack, working_set_solve
from repro.core.sampling import gumbel_top_k
from repro.fabric.topology import StreamTopology
from repro.problems.linear_program import LinearProgram
from repro.problems.meb import Ball, MinimumEnclosingBall
from repro.problems.qp import ConvexQuadraticProgram
from repro.problems.svm import LinearSVM
from repro.workloads import (
    make_separable_classification,
    random_feasible_lp,
    svm_problem,
    uniform_ball_points,
)


def _lp_problem(seed: int) -> LinearProgram:
    return random_feasible_lp(60, 3, seed=seed).problem


def _meb_problem(seed: int) -> MinimumEnclosingBall:
    return MinimumEnclosingBall(uniform_ball_points(60, 3, seed=seed))


def _svm_problem(seed: int) -> LinearSVM:
    return svm_problem(make_separable_classification(60, 3, seed=seed))


def _qp_problem(seed: int) -> ConvexQuadraticProgram:
    rng = np.random.default_rng(seed)
    d = 3
    normals = rng.normal(size=(60, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchor = rng.uniform(-1.0, 1.0, size=d)
    h = normals @ anchor - rng.uniform(0.1, 1.0, size=60)
    return ConvexQuadraticProgram(np.eye(d), rng.normal(size=d), normals, h)


FAMILIES = {
    "lp": _lp_problem,
    "meb": _meb_problem,
    "svm": _svm_problem,
    "qp": _qp_problem,
}


def _random_witnesses(problem, rng: np.random.Generator) -> list:
    """Random witnesses plus realistic ones from actual subset solves."""
    witnesses = []
    if isinstance(problem, MinimumEnclosingBall):
        for _ in range(4):
            witnesses.append(
                Ball(
                    center=rng.normal(scale=2.0, size=problem.dimension),
                    radius=float(rng.uniform(0.0, 2.0)),
                )
            )
    else:
        for scale in (0.3, 1.0, 5.0):
            witnesses.append(rng.normal(scale=scale, size=problem.dimension))
    # Near-boundary witnesses: solve random subsets and reuse their optima.
    for size in (4, 12):
        subset = rng.choice(problem.num_constraints, size=size, replace=False)
        basis = problem.solve_subset(np.sort(subset))
        if basis.witness is not None:
            witnesses.append(basis.witness)
    witnesses.append(None)
    return witnesses


def _scalar_mask(problem, witness, indices) -> np.ndarray:
    return np.array([problem.violates(witness, int(i)) for i in indices], dtype=bool)


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_pack_matches_scalar_violates(family, seed):
    """The packed oracle agrees with per-constraint ``violates`` everywhere."""
    problem = FAMILIES[family](seed % 1000)
    assert problem.constraint_pack() is not None
    rng = np.random.default_rng(seed)
    indices = problem.all_indices()
    witnesses = _random_witnesses(problem, rng)

    for witness in witnesses:
        expected = (
            _scalar_mask(problem, witness, indices)
            if witness is not None
            else np.zeros(indices.size, dtype=bool)
        )
        packed = problem.violation_mask(witness, indices)
        assert packed.dtype == bool
        np.testing.assert_array_equal(packed, expected)

    # The count matrix is the sum of the per-witness masks.
    expected_counts = np.zeros(indices.size, dtype=np.int64)
    for witness in witnesses:
        if witness is not None:
            expected_counts += _scalar_mask(problem, witness, indices)
    np.testing.assert_array_equal(
        problem.violation_count_matrix(witnesses, indices), expected_counts
    )


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_pack_subset_indexing(family):
    """Masks over arbitrary index subsets match the full-set mask slices."""
    problem = FAMILIES[family](5)
    rng = np.random.default_rng(5)
    witness = _random_witnesses(problem, rng)[0]
    full = problem.violation_mask(witness, problem.all_indices())
    subset = np.array([7, 3, 41, 3, 0])
    np.testing.assert_array_equal(problem.violation_mask(witness, subset), full[subset])


def test_meb_pack_far_from_origin_matches_scalar():
    """The centred MEB pack survives large coordinate magnitudes.

    The naive expansion ``||p||^2 - 2 p.c + ||c||^2`` cancels catastrophically
    when ``||p|| ~ 1e8`` dwarfs the tolerance; centring by the cloud centroid
    keeps the packed mask identical to the scalar reference.
    """
    rng = np.random.default_rng(0)
    far = np.full(3, 1.0e8)
    points = far + rng.normal(scale=2.0, size=(500, 3))
    problem = MinimumEnclosingBall(points)
    ball = Ball(center=far + rng.normal(scale=0.5, size=3), radius=2.5)
    idx = problem.all_indices()
    np.testing.assert_array_equal(
        problem.violation_mask(ball, idx), _scalar_mask(problem, ball, idx)
    )


class TestConstraintPackValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConstraintPack(rows=np.zeros((3, 2)), rhs=np.zeros(4), limit=0.0)
        with pytest.raises(ValueError):
            ConstraintPack(rows=np.zeros(3), rhs=np.zeros(3), limit=0.0)
        with pytest.raises(ValueError):
            ConstraintPack(rows=np.zeros((3, 2)), rhs=np.zeros(3), limit=np.zeros(2))

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            ConstraintPack(rows=np.zeros((3, 2)), rhs=np.zeros(3), limit=0.0, sense=0)

    def test_pack_is_contiguous_float64(self):
        for family, make in FAMILIES.items():
            pack = make(1).constraint_pack()
            assert pack.rows.flags["C_CONTIGUOUS"], family
            assert pack.rows.dtype == np.float64
            assert pack.rhs.dtype == np.float64
            assert pack.limit.shape == (pack.num_constraints,)


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_working_set_solve_matches_direct(family):
    """The working-set fast path returns the same ``f`` as a direct solve."""
    problem = FAMILIES[family](17)
    idx = problem.all_indices()
    via_working_set = working_set_solve(
        problem, idx, problem._solve_subset_direct, direct_limit=8
    )
    direct = problem._solve_subset_direct(idx)
    assert via_working_set.value == direct.value
    assert via_working_set.subset_size == idx.size
    # The witness of the working set must be feasible for the whole subset.
    assert problem.violation_mask(via_working_set.witness, idx).sum() == 0


class TestGumbelTopK:
    def test_matches_support_and_size(self):
        idx = gumbel_top_k(np.log([1.0, 2.0, 3.0, 4.0]), 2, rng=0)
        assert idx.size == 2
        assert np.all((idx >= 0) & (idx < 4))
        assert np.all(np.diff(idx) > 0)

    def test_zero_weight_never_selected(self):
        log_w = np.array([0.0, -np.inf, 0.0, -np.inf])
        for seed in range(20):
            idx = gumbel_top_k(log_w, 3, rng=seed)
            assert set(idx.tolist()) <= {0, 2}

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            gumbel_top_k(np.full(3, -np.inf), 1, rng=0)

    def test_heavier_weight_wins_statistically(self):
        log_w = np.log(np.array([1.0, 1.0, 1.0, 30.0]))
        hits = sum(3 in gumbel_top_k(log_w, 1, rng=seed) for seed in range(300))
        assert hits > 200


def test_scan_chunks_matches_scan_order():
    stream = StreamTopology(10, order=[3, 1, 4, 8, 9, 2, 6, 5, 0, 7])
    items = stream.order().tolist()
    chunked = np.concatenate(list(StreamTopology.iter_chunks(stream.order(), 3)))
    assert chunked.tolist() == items
    with pytest.raises(ValueError):
        list(StreamTopology.iter_chunks(stream.order(), 0))
