"""Kernel-backend parity grid.

The kernel layer's contract (see ``repro/kernels/base.py``): every backend
returns bit-identical violation masks, counts, float64 scores, and sample
indices; weight *sums* are the one sanctioned exception (blocked accumulation
may differ in ulps), so they are compared to tolerance.  The grid pins the
``fused`` (and, where importable, ``numba``) backends against
the ``numpy`` reference across all four problem families, plus the batched
basis solves, the Gumbel sampler, and the resolution/fallback rules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolverConfig, kernels, solve, solve_many
from repro.api.registry import describe_model
from repro.core.lptype import ConstraintPack, as_index_array, _as_selector
from repro.problems.meb import MinimumEnclosingBall
from repro.problems.qp import ConvexQuadraticProgram
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

BACKENDS = list(kernels.available_backends())
ALTERNATES = [b for b in BACKENDS if b != "numpy"]
FAMILIES = ("lp", "meb", "svm", "qp")

N = 3_000
D = 4


def _build(family: str, n: int = N, d: int = D, seed: int = 7):
    if family == "lp":
        return random_polytope_lp(n, d, seed=seed).problem
    if family == "meb":
        return MinimumEnclosingBall(uniform_ball_points(n, d, seed=seed))
    if family == "svm":
        return svm_problem(make_separable_classification(n, d, seed=seed))
    if family == "qp":
        rng = np.random.default_rng(seed)
        q_matrix = np.diag(np.linspace(1.0, 2.0, d))
        q_vector = rng.normal(size=d)
        normals = rng.normal(size=(n, d))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        anchor = rng.uniform(-1.0, 1.0, size=d)
        h_vector = normals @ anchor - rng.uniform(0.1, 1.0, size=n)
        return ConvexQuadraticProgram(q_matrix, q_vector, normals, h_vector)
    raise AssertionError(family)


def _witness(problem):
    """A representative witness: the optimum of a small head subset (it
    violates a healthy fraction of the remaining constraints)."""
    return problem.solve_subset(list(range(40))).witness


SELECTORS = {
    "all": lambda n: None,
    "contiguous": lambda n: np.arange(100, n - 137),
    "gather": lambda n: np.arange(0, n, 3),
    "unsorted": lambda n: np.array([5, 2, 900, 2_500, 41, 1_000]),
    "empty": lambda n: np.array([], dtype=int),
}


@pytest.mark.parametrize("selector", sorted(SELECTORS))
@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_parity_grid(family, selector):
    problem = _build(family)
    witness = _witness(problem)
    indices = SELECTORS[selector](problem.num_constraints)
    m = problem.num_constraints if indices is None else len(indices)
    weights = np.random.default_rng(3).uniform(0.1, 5.0, size=m)

    with kernels.use_backend("numpy"):
        ref = problem.violation_sweep(witness, indices, weights=weights)
    assert ref.count == int(ref.mask.sum())
    for backend in ALTERNATES:
        with kernels.use_backend(backend):
            got = problem.violation_sweep(witness, indices, weights=weights)
        assert np.array_equal(got.mask, ref.mask), backend
        assert got.count == ref.count, backend
        # Weight sums: the sanctioned ulp exception.
        assert got.violated_weight == pytest.approx(ref.violated_weight, rel=1e-12)
        assert got.total_weight == pytest.approx(ref.total_weight, rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_scores_bit_identical(family):
    problem = _build(family)
    pack = problem.constraint_pack()
    if pack is None:
        pytest.skip(f"{family} has no constraint pack")
    encoded = problem.encode_witness(_witness(problem))
    for indices in (None, np.arange(50, 2_000), np.arange(0, N, 7)):
        with kernels.use_backend("numpy"):
            ref = pack.scores(encoded, indices)
        for backend in ALTERNATES:
            with kernels.use_backend(backend):
                got = pack.scores(encoded, indices)
            assert got.dtype == np.float64
            assert np.array_equal(got, ref), (backend, indices)


@pytest.mark.parametrize("family", FAMILIES)
def test_count_matrix_parity(family):
    problem = _build(family)
    witnesses = [
        problem.solve_subset(list(range(start, start + 25))).witness
        for start in (0, 200, 900)
    ]
    for indices in (None, np.arange(10, 2_500), np.arange(0, N, 11)):
        with kernels.use_backend("numpy"):
            ref = problem.violation_count_matrix(witnesses, indices)
        for backend in ALTERNATES:
            with kernels.use_backend(backend):
                got = problem.violation_count_matrix(witnesses, indices)
            assert np.array_equal(got, ref), backend


def _same_witness(a, b) -> bool:
    if hasattr(a, "center"):
        return np.array_equal(a.center, b.center) and a.radius == b.radius
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("family", FAMILIES)
def test_full_solve_identical_across_backends(family):
    problem = _build(family, n=2_000)
    results = {}
    for backend in BACKENDS:
        config = SolverConfig.practical(
            problem, r=2, seed=11, kernel_backend=backend
        )
        results[backend] = solve(problem, model="sequential", config=config)
        assert results[backend].metadata["kernel_backend"] == backend
    ref = results["numpy"]
    for backend in ALTERNATES:
        got = results[backend]
        assert got.basis_indices == ref.basis_indices, backend
        assert got.iterations == ref.iterations, backend
        assert got.successful_iterations == ref.successful_iterations, backend
        assert got.value == ref.value, backend
        assert _same_witness(got.witness, ref.witness), backend


# --------------------------------------------------------------------- #
# Primitive-level parity
# --------------------------------------------------------------------- #


def _legacy_gumbel_top_k(arr, size, gen):
    """The pre-kernel-layer sampler, reproduced verbatim as the pin."""
    tiny = float(np.nextafter(0.0, 1.0))
    positive = np.flatnonzero(arr > -np.inf)
    if positive.size == 0:
        raise ValueError("total weight must be positive")
    size = min(size, positive.size)
    if size == 0:
        return np.empty(0, dtype=int)
    sub = arr[positive]
    u = np.maximum(gen.random(sub.size), tiny)
    keys = sub - np.log(-np.log(u))
    if size < positive.size:
        top = np.argpartition(keys, positive.size - size)[positive.size - size:]
    else:
        top = np.arange(positive.size)
    return np.sort(positive[top])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("zeros", [False, True])
def test_gumbel_top_k_matches_legacy(backend, zeros):
    rng = np.random.default_rng(5)
    arr = rng.normal(size=10_000)
    if zeros:
        arr[rng.integers(0, arr.size, size=500)] = -np.inf
    for size in (1, 17, 512, arr.size):
        expected = _legacy_gumbel_top_k(arr.copy(), size, np.random.default_rng(99))
        got = kernels.get_backend(backend).gumbel_top_k(
            arr.copy(), size, np.random.default_rng(99)
        )
        assert np.array_equal(got, expected), (backend, size)


@pytest.mark.parametrize("backend", BACKENDS)
def test_gumbel_top_k_all_zero_weights_raises(backend):
    arr = np.full(64, -np.inf)
    with pytest.raises(ValueError, match="total weight must be positive"):
        kernels.get_backend(backend).gumbel_top_k(arr, 4, np.random.default_rng(0))


@pytest.mark.parametrize("backend", ALTERNATES)
def test_solve_many_batched_matches_looped(backend):
    rng = np.random.default_rng(17)
    for batch, m in ((1, 1), (7, 3), (40, 6), (0, 4)):
        base = rng.normal(size=(batch, m, m))
        mats = base @ np.transpose(base, (0, 2, 1)) + 0.5 * np.eye(m)
        rhs = rng.normal(size=(batch, m))
        ref = kernels.get_backend("numpy").solve_many(mats, rhs)
        got = kernels.get_backend(backend).solve_many(mats, rhs)
        assert got.shape == (batch, m)
        assert np.array_equal(got, ref), (backend, batch, m)


@pytest.mark.parametrize("backend", ALTERNATES)
def test_first_violator_parity(backend):
    rng = np.random.default_rng(23)
    a = rng.normal(size=(50_000, 5))
    x = rng.normal(size=5)
    ref_backend = kernels.get_backend("numpy")
    alt = kernels.get_backend(backend)
    # No violator / early violator / violator deep in the tail / suffix view.
    for b in (
        a @ x + 1.0,                       # none violated
        a @ x - 1e-6,                      # (almost) all violated
        np.concatenate([a[:49_999] @ x[None].T.ravel() + 1.0, [-np.inf]])
        if False else np.r_[a[:-1] @ x + 1.0, a[-1] @ x - 1.0],  # only the last
    ):
        assert alt.first_violator(a, b, x, 1e-9) == ref_backend.first_violator(
            a, b, x, 1e-9
        )
    suffix = slice(12_345, None)
    b = a @ x + 1.0
    b[30_000] = a[30_000] @ x - 1.0
    assert alt.first_violator(
        a[suffix], b[suffix], x, 1e-9
    ) == ref_backend.first_violator(a[suffix], b[suffix], x, 1e-9)


def test_fused_float32_recertifies_adversarial_scales():
    """Catastrophic-cancellation margins land inside the f32 band and must be
    re-certified in float64: masks stay bit-identical to the reference."""
    rng = np.random.default_rng(31)
    n, d = 20_000, 6
    rows = rng.normal(size=(n, d))
    # Mixed row scales spanning ~40 orders of magnitude.
    rows *= 10.0 ** rng.integers(-20, 20, size=(n, 1)).astype(float)
    vec = rng.normal(size=d)
    offset = 0.3
    # rhs chosen so the true scores sit within +-1e-9 of the threshold —
    # far below float32 resolution at these scales.
    jitter = rng.uniform(-1e-9, 1e-9, size=n)
    rhs = rows @ vec + offset - jitter
    pack = ConstraintPack(rows=rows, rhs=rhs, limit=0.0, sense=1)
    encoded = (vec, offset)
    with kernels.use_backend("numpy"):
        ref = pack.sweep(encoded)
    for backend in ALTERNATES:
        with kernels.use_backend(backend):
            got = pack.sweep(encoded)
        assert np.array_equal(got.mask, ref.mask), backend
        assert got.count == ref.count


def test_meb_exact_small_solver_matches_qp():
    rng = np.random.default_rng(41)
    for d in (2, 3, 5):
        for k in (2, 3, 5, 8, 10):
            pts = rng.normal(size=(max(k, 12), d))
            problem = MinimumEnclosingBall(pts)
            idx = np.arange(k)
            exact = problem._solve_small_exact(idx)
            qp = problem._solve_qp(idx)
            assert exact is not None
            # The batched-circumcentre solve is exact; SLSQP agrees to its
            # own tolerance and can only be (weakly) worse.
            assert exact.radius == pytest.approx(qp.radius, rel=1e-5, abs=1e-7)
            assert exact.radius <= qp.radius + 1e-7
            distances = np.linalg.norm(pts[idx] - exact.center, axis=1)
            assert float(distances.max()) <= exact.radius + 1e-9


def test_meb_exact_handles_degenerate_clouds():
    # All points coincident: zero-radius ball, no linear system at all.
    problem = MinimumEnclosingBall(np.ones((5, 3)))
    ball = problem._solve_small_exact(np.arange(5))
    assert ball is not None and ball.radius == 0.0
    # Collinear duplicates: the singular subsets are filtered, the
    # remaining pair still determines the optimum.
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    problem = MinimumEnclosingBall(pts)
    ball = problem._solve_small_exact(np.arange(3))
    assert ball is not None
    assert ball.radius == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------------- #
# Selection, resolution, and API threading
# --------------------------------------------------------------------- #


def test_as_index_array_passes_int_arrays_through():
    arr = np.arange(10, dtype=np.int64)
    assert as_index_array(arr) is arr
    view = arr[2:7]
    assert as_index_array(view) is view
    floats = np.arange(4, dtype=float)
    converted = as_index_array(floats)
    assert converted.dtype.kind == "i"
    assert np.array_equal(converted, [0, 1, 2, 3])
    assert np.array_equal(as_index_array([3, 1]), [3, 1])


def test_as_selector_classification():
    assert _as_selector(None, 100) is None
    assert _as_selector(np.arange(100), 100) is None          # full range
    sel = _as_selector(np.arange(5, 50), 100)
    assert sel == slice(5, 50)                                 # contiguous run
    fancy = _as_selector(np.array([3, 1, 2]), 100)
    assert isinstance(fancy, np.ndarray)                       # not monotonic
    gap = _as_selector(np.array([1, 3, 5]), 100)
    assert isinstance(gap, np.ndarray)                         # strided
    empty = _as_selector(np.array([], dtype=int), 100)
    assert isinstance(empty, np.ndarray) and empty.size == 0


def test_resolution_precedence(monkeypatch):
    monkeypatch.delenv(kernels.KERNEL_BACKEND_ENV, raising=False)
    assert kernels.resolve_backend_name(None) == kernels.DEFAULT_KERNEL_BACKEND
    monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "numpy")
    assert kernels.resolve_backend_name(None) == "numpy"
    # An explicit name wins over the environment.
    assert kernels.resolve_backend_name("fused") == "fused"
    # Unknown names fall back to the default (the warning fires once per
    # process, so start from an empty record).
    monkeypatch.setattr(kernels, "_WARNED", set())
    monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "cuda")
    with pytest.warns(RuntimeWarning, match="unknown kernel backend 'cuda'"):
        assert kernels.resolve_backend_name(None) == kernels.DEFAULT_KERNEL_BACKEND


@pytest.mark.skipif(
    "numba" in BACKENDS, reason="numba installed: no fallback to exercise"
)
def test_known_but_unavailable_backend_falls_back_to_numpy(monkeypatch):
    monkeypatch.setattr(kernels, "_WARNED", set())
    with pytest.warns(RuntimeWarning, match="'numba' is not available"):
        assert kernels.resolve_backend_name("numba") == "numpy"


def test_use_backend_nests_and_restores():
    default = kernels.active_backend_name()
    with kernels.use_backend("numpy") as outer:
        assert outer == "numpy"
        assert kernels.active_backend().name == "numpy"
        with kernels.use_backend("fused"):
            assert kernels.active_backend().name == "fused"
        assert kernels.active_backend().name == "numpy"
    assert kernels.active_backend_name() == default


def test_config_validates_kernel_backend():
    from repro.core.exceptions import InvalidConfigError

    SolverConfig(kernel_backend="fused")     # valid
    SolverConfig(kernel_backend="numba")     # known everywhere, resolved later
    with pytest.raises(InvalidConfigError, match="kernel_backend"):
        SolverConfig(kernel_backend="cuda")


def test_env_var_reaches_solve(monkeypatch):
    problem = _build("lp", n=500)
    monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "numpy")
    result = solve(problem, model="sequential", seed=3)
    assert result.metadata["kernel_backend"] == "numpy"
    monkeypatch.delenv(kernels.KERNEL_BACKEND_ENV)
    result = solve(problem, model="sequential", seed=3)
    assert result.metadata["kernel_backend"] == kernels.DEFAULT_KERNEL_BACKEND


def test_describe_model_reports_backends():
    record = describe_model("sequential")
    assert "numpy" in record["kernel_backends"]
    assert "fused" in record["kernel_backends"]


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_api_solve_many_parallel_parity(backend):
    problems = [_build("lp", n=400, seed=60 + i) for i in range(4)]
    config = SolverConfig(kernel_backend=backend)
    serial = solve_many(
        problems, model="sequential", config=config, max_workers=1, root_seed=9
    )
    threaded = solve_many(
        problems, model="sequential", config=config, max_workers=3, root_seed=9
    )
    for lhs, rhs in zip(serial.results, threaded.results):
        assert lhs.value == rhs.value
        assert lhs.basis_indices == rhs.basis_indices
        assert lhs.metadata["kernel_backend"] == backend


def test_distributed_models_record_backend():
    problem = _build("lp", n=1_200)
    for model in ("streaming", "coordinator", "mpc"):
        config = SolverConfig.practical(
            problem, r=2, seed=5, kernel_backend="numpy"
        )
        result = solve(problem, model=model, config=config)
        assert result.metadata["kernel_backend"] == "numpy", model
