"""The stateful session API: lifecycle, warm-start determinism, ingestion.

The central contract (ISSUE 5): a warm re-solve —
``session.resolve_with(added=...)`` — certifies the *same basis* as a cold
solve of the union instance, for all four problem families and all four
models, including on the real-multiprocess ``ProcessPoolTransport``; and
``SolveResult.warm`` records the reuse.  One-shot ``repro.solve`` stays
bit-identical to a session's cold solve.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    BudgetExceededError,
    ResourceBudget,
    SessionError,
    TransportConfig,
    solve,
)
from repro.api.session import extend_problem
from repro.problems import (
    ConvexQuadraticProgram,
    LinearSVM,
    MinimumEnclosingBall,
)
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

FAST = dict(sample_size=400, success_threshold=0.02, max_iterations=500, seed=0)

MODELS = ("sequential", "streaming", "coordinator", "mpc")
MODEL_KWARGS = {
    "sequential": dict(),
    "streaming": dict(r=2),
    "coordinator": dict(r=2, num_sites=3),
    "mpc": dict(delta=0.5),
}

_QP_ANCHOR = {}


def _lp_instance():
    return random_polytope_lp(1600, 2, seed=21).problem


def _meb_instance():
    return MinimumEnclosingBall(points=uniform_ball_points(1500, 2, radius=2.0, seed=22))


def _svm_instance():
    return svm_problem(make_separable_classification(1200, 2, seed=23, margin=0.4))


def _qp_instance():
    rng = np.random.default_rng(24)
    d = 2
    g = rng.normal(size=(1200, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    anchor = np.full(d, 5.0)
    h = g @ anchor - rng.uniform(0.5, 4.0, size=1200)
    problem = ConvexQuadraticProgram(
        q_matrix=np.eye(d) * 2.0, q_vector=np.ones(d), g_matrix=g, h_vector=h
    )
    _QP_ANCHOR[id(problem)] = anchor
    return problem


def _cut_lp(problem, result):
    """A halfspace cutting off the LP optimum but keeping feasibility.

    The cut direction is the objective *tilted* by an orthogonal component,
    so the cut's face is not an objective level set — the new optimum is a
    nondegenerate vertex with a unique basis (a cut along ``-c`` would tie
    every point of the cut face and leave the basis to tie-breaking)."""
    witness = np.asarray(result.witness, dtype=float)
    direction = -(problem.c + 0.37 * np.array([-problem.c[1], problem.c[0]]))
    rhs = float(direction @ witness) - 0.05
    return (direction.reshape(1, -1), np.array([rhs]))


def _cut_meb(problem, result):
    """Points outside the current minimum enclosing ball."""
    ball = result.witness
    direction = np.zeros(problem.dimension)
    direction[0] = 1.0
    return ball.center + direction * (ball.radius * 1.5)


def _cut_svm(problem, result):
    """A correctly-labelled point strictly inside the current margin: it
    violates the margin-1 constraint under the current witness, but scaling
    that witness still separates — the instance stays feasible."""
    u = np.asarray(result.witness, dtype=float)
    point = u * (0.5 / float(u @ u))
    return (point.reshape(1, -1), np.array([1.0]))


def _cut_qp(problem, result):
    """A halfspace ``g.x >= h`` violated at the QP optimum but satisfied at
    the instance's known interior anchor."""
    anchor = _QP_ANCHOR[id(problem)]
    x_star = np.asarray(result.witness, dtype=float)
    g = anchor - x_star
    g = g / np.linalg.norm(g)
    h = float(g @ x_star) + 0.5 * float(g @ (anchor - x_star))
    return (g.reshape(1, -1), np.array([h]))


INSTANCES = {
    "lp": _lp_instance,
    "meb": _meb_instance,
    "svm": _svm_instance,
    "qp": _qp_instance,
}
CUTTERS = {"lp": _cut_lp, "meb": _cut_meb, "svm": _cut_svm, "qp": _cut_qp}


def _scalar(value):
    for attr in ("objective", "radius", "squared_norm"):
        if hasattr(value, attr):
            return float(getattr(value, attr))
    return float(value)


# ---------------------------------------------------------------------- #
# One-shot parity: solve() is an ephemeral session
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("model", MODELS)
def test_session_cold_solve_matches_one_shot(model):
    problem = _lp_instance()
    one_shot = solve(problem, model=model, **FAST, **MODEL_KWARGS[model])
    with repro.session(model=model, **FAST, **MODEL_KWARGS[model]) as sess:
        in_session = sess.solve(problem)
    assert _scalar(in_session.value) == _scalar(one_shot.value)
    assert in_session.basis_indices == one_shot.basis_indices
    assert in_session.iterations == one_shot.iterations
    assert in_session.resources == one_shot.resources
    assert in_session.metadata == one_shot.metadata
    # The one-shot facade never tracks warm state; the session always does.
    assert one_shot.warm is None
    assert in_session.warm is not None and not in_session.warm.warm_start


# ---------------------------------------------------------------------- #
# Warm-start determinism: the 4 problems x 4 models grid
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family", sorted(INSTANCES))
def test_warm_resolve_agrees_with_cold_union_solve(family, model):
    problem = INSTANCES[family]()
    kwargs = MODEL_KWARGS[model]
    with repro.session(model=model, **FAST, **kwargs) as sess:
        first = sess.solve(problem)
        added = CUTTERS[family](problem, first)
        union, keep = extend_problem(problem, added=added)
        assert keep.size == problem.num_constraints
        # The cut genuinely invalidates the prior optimum, so the engine
        # (not the fast path) must run.
        assert union.violation_mask(
            first.witness, union.all_indices()
        ).any(), "test constraint does not cut the prior optimum"
        warm = sess.resolve_with(added=added)

    cold = solve(union, model=model, **FAST, **kwargs)
    assert warm.warm is not None and not warm.warm.fast_path
    assert warm.warm.reused_bases == first.warm.new_bases
    # The determinism contract: same certified basis, same optimum.
    assert warm.basis_indices == cold.basis_indices
    assert _scalar(warm.value) == pytest.approx(
        _scalar(cold.value), rel=1e-6, abs=1e-9
    )
    # The cut moved the optimum.
    assert _scalar(warm.value) != pytest.approx(
        _scalar(first.value), rel=1e-9, abs=1e-12
    )


@pytest.mark.parametrize("model", ("streaming", "coordinator", "mpc"))
def test_warm_resolve_process_transport_bit_identical(model):
    """The warm grid on real worker processes: results match in-process."""
    problem = random_polytope_lp(900, 2, seed=31).problem
    kwargs = dict(MODEL_KWARGS[model])
    transport = TransportConfig(kind="process", max_workers=2)

    outcomes = {}
    for label, extra in (("inprocess", {}), ("process", {"transport": transport})):
        with repro.session(model=model, **FAST, **kwargs, **extra) as sess:
            first = sess.solve(problem)
            added = _cut_lp(problem, first)
            warm = sess.resolve_with(added=added)
            outcomes[label] = (first, warm)

    for index in range(2):
        a = outcomes["inprocess"][index]
        b = outcomes["process"][index]
        assert a.basis_indices == b.basis_indices
        assert _scalar(a.value) == _scalar(b.value)
        assert a.iterations == b.iterations
    # And the process-side warm result agrees with a cold union solve.
    union, _ = extend_problem(problem, added=_cut_lp(problem, outcomes["process"][0]))
    cold = solve(union, model=model, **FAST, **kwargs)
    assert outcomes["process"][1].basis_indices == cold.basis_indices


# ---------------------------------------------------------------------- #
# Fast path, removals, errors
# ---------------------------------------------------------------------- #


def test_fast_path_certifies_satisfied_additions_in_one_sweep():
    problem = _lp_instance()
    with repro.session(model="streaming", **FAST, r=2) as sess:
        first = sess.solve(problem)
        witness = np.asarray(first.witness, dtype=float)
        row = np.ones((1, problem.dimension))
        rhs = np.array([float((row @ witness)[0]) + 1.0])  # satisfied at the optimum
        result = sess.resolve_with(added=(row, rhs))
    assert result.warm.fast_path
    assert result.iterations == 0
    assert result.resources.passes == 1  # the certification sweep
    assert result.basis_indices == first.basis_indices
    assert _scalar(result.value) == _scalar(first.value)


def test_resolve_without_changes_is_a_warm_recertification():
    problem = _lp_instance()
    with repro.session(model="sequential", **FAST) as sess:
        first = sess.solve(problem)
        again = sess.resolve_with()
    assert again.warm.fast_path
    assert _scalar(again.value) == _scalar(first.value)


def test_removal_reruns_engine_and_matches_cold_solve():
    problem = _lp_instance()
    with repro.session(model="sequential", **FAST) as sess:
        first = sess.solve(problem)
        removed = [int(i) for i in first.basis_indices[:1]]
        warm = sess.resolve_with(removed=removed)
    shrunk, keep = extend_problem(problem, removed=removed)
    assert keep.size == problem.num_constraints - 1
    cold = solve(shrunk, model="sequential", **FAST)
    assert not warm.warm.fast_path  # removals never take the fast path
    assert warm.basis_indices == cold.basis_indices
    assert _scalar(warm.value) == pytest.approx(_scalar(cold.value), rel=1e-6)
    # Dropping a basis constraint can only improve (or keep) the optimum.
    assert _scalar(warm.value) <= _scalar(first.value) + 1e-9


def test_warm_state_accumulates_across_resolves():
    problem = _lp_instance()
    with repro.session(model="streaming", **FAST, r=2) as sess:
        first = sess.solve(problem)
        result = first
        total = first.warm.new_bases
        for step in range(2):
            added = _cut_lp(problem, result)
            problem, _ = extend_problem(problem, added=added)
            result = sess.resolve_with(added=added)
            assert result.warm.reused_bases == total
            total += result.warm.new_bases
        assert sess.describe()["warm_bases"] == total


def test_resolve_with_requires_prior_solve_and_capability(medium_lp):
    with repro.session(model="streaming", **FAST) as sess:
        with pytest.raises(SessionError, match="prior solve"):
            sess.resolve_with(removed=[0])
    with repro.session(model="exact") as sess:
        sess.solve(medium_lp)
        with pytest.raises(SessionError, match="warm restart"):
            sess.resolve_with(removed=[0])


def test_closed_session_rejects_solves(medium_lp):
    sess = repro.session(model="sequential", **FAST)
    sess.close()
    with pytest.raises(SessionError, match="closed"):
        sess.solve(medium_lp)


def test_session_validates_transport_kind_against_model():
    """A model whose driver only runs in-process rejects a process config."""
    from repro.api import register_model, unregister_model
    from repro.api.config import StreamingConfig
    from repro.core.exceptions import InvalidConfigError

    register_model(
        "inprocess-only",
        lambda problem, config: None,
        config_cls=StreamingConfig,
        transports=("inprocess",),
    )
    try:
        with pytest.raises(InvalidConfigError, match="does not run on transport"):
            repro.session(
                model="inprocess-only", transport=TransportConfig(kind="process")
            )
    finally:
        unregister_model("inprocess-only")


def test_fast_path_skipped_when_overrides_or_budget_given():
    """Per-call overrides demand a real solve: the fast path never swallows
    them (regression: it used to return the cached prior certificate)."""
    problem = _lp_instance()
    with repro.session(model="streaming", **FAST, r=2) as sess:
        first = sess.solve(problem)
        witness = np.asarray(first.witness, dtype=float)
        row = np.ones((1, problem.dimension))
        rhs = np.array([float((row @ witness)[0]) + 1.0])
        overridden = sess.resolve_with(added=(row, rhs), r=3)
    assert not overridden.warm.fast_path
    assert overridden.metadata["r"] == 3


def test_facade_keeps_accepting_transports_runners_ignore(medium_lp):
    """Baseline runners ignore the config's transport field; one-shot calls
    with such configs must keep working (pre-session behaviour), while an
    explicit session enforces the model's declared transports."""
    from repro import CoordinatorConfig

    config = CoordinatorConfig(
        num_sites=2, transport=TransportConfig(kind="process"), seed=0
    )
    result = solve(medium_lp, model="ship_all_coordinator", config=config)
    assert result.basis_indices
    with pytest.raises(SessionError, match="removed indices"):
        extend_problem(medium_lp, removed=[medium_lp.num_constraints + 5])


def test_extend_problem_rejects_unknown_problem_types():
    class Opaque:
        num_constraints = 3
        dimension = 2

    with pytest.raises(SessionError, match="ProblemFamily"):
        extend_problem(Opaque())


# ---------------------------------------------------------------------- #
# Budgets through the session
# ---------------------------------------------------------------------- #


def test_iteration_budget_aborts_with_partial_usage():
    problem = _lp_instance()
    with repro.session(model="sequential", **FAST) as sess:
        reference = sess.solve(problem)
        assert reference.iterations > 1, "instance too easy to exercise budgets"
        with pytest.raises(BudgetExceededError) as excinfo:
            sess.run_cold(problem, budget=ResourceBudget(iterations=1))
    assert excinfo.value.reason == "iterations"
    assert excinfo.value.iterations == 1
    assert excinfo.value.usage is not None


def test_communication_budget_aborts_coordinator_solve():
    problem = _lp_instance()
    with repro.session(model="coordinator", **FAST, num_sites=3) as sess:
        with pytest.raises(BudgetExceededError) as excinfo:
            sess.run_cold(problem, budget=ResourceBudget(communication_bits=64))
    assert excinfo.value.reason == "communication_bits"
    assert excinfo.value.communication_bits > 64
    assert excinfo.value.usage.total_communication_bits > 64


# ---------------------------------------------------------------------- #
# Ingestion handles
# ---------------------------------------------------------------------- #


def test_ingest_builds_fresh_instance_from_chunks():
    rng = np.random.default_rng(5)
    with repro.session(model="sequential", **FAST) as sess:
        handle = sess.ingest(family="meb")
        for _ in range(4):
            handle.feed(rng.normal(size=(300, 3)))
        result = handle.finalize()
        assert sess.problem.num_constraints == 1200
    direct = solve(sess.problem, model="sequential", **FAST)
    assert result.basis_indices == direct.basis_indices


def test_ingest_extends_current_problem_warm():
    problem = _meb_instance()
    with repro.session(model="streaming", **FAST, r=2) as sess:
        first = sess.solve(problem)
        handle = sess.ingest()
        ball = first.witness
        outside = ball.center + np.array([ball.radius * 2.0, 0.0])
        handle.feed(outside)
        result = handle.finalize()
        assert sess.problem.num_constraints == problem.num_constraints + 1
    assert result.warm is not None and not result.warm.fast_path
    # warm_start reflects whether the prior run left any weight state to
    # carry (a run that terminates on its first sample leaves none).
    assert result.warm.warm_start == (first.warm.new_bases > 0)
    assert result.warm.reused_bases == first.warm.new_bases
    assert _scalar(result.value) > _scalar(first.value)  # the ball grew


def test_ingest_lp_requires_objective_and_validates_usage():
    with repro.session(model="sequential", **FAST) as sess:
        with pytest.raises(SessionError, match="family"):
            sess.ingest()  # no current problem, no family
        handle = sess.ingest(family="lp", c=np.array([1.0, 1.0]))
        with pytest.raises(SessionError, match="constraint block"):
            handle.feed()
        handle.feed(np.array([[1.0, 0.0, 5.0]]))  # (rows | rhs) form
        handle.feed((np.array([[0.0, 1.0]]), np.array([5.0])))
        problem = handle.finalize(solve=False)
        assert problem.num_constraints == 2
        with pytest.raises(SessionError, match="finalised"):
            handle.feed(np.array([[1.0, 1.0, 1.0]]))
        bad = sess.ingest(family="lp")
        bad.feed(np.array([[1.0, 0.0, 5.0]]))
        with pytest.raises(SessionError, match="objective"):
            bad.finalize(solve=False)


def test_ingest_unknown_family_fails_loudly():
    with repro.session(model="sequential", **FAST) as sess:
        handle = sess.ingest(family="nope")
        handle.feed(np.zeros((1, 2)))
        with pytest.raises(SessionError, match="unknown ingestion family"):
            handle.finalize(solve=False)


# ---------------------------------------------------------------------- #
# Batches and the registry's session introspection
# ---------------------------------------------------------------------- #


def test_session_solve_many_matches_plain_solve_many():
    problems = [random_polytope_lp(700, 2, seed=40 + i).problem for i in range(3)]
    plain = repro.solve_many(problems, model="streaming", root_seed=7, **FAST)
    with repro.session(model="streaming", **FAST) as sess:
        in_session = sess.solve_many(problems, root_seed=7)
    assert [r.basis_indices for r in plain] == [r.basis_indices for r in in_session]
    assert [_scalar(r.value) for r in plain] == [_scalar(r.value) for r in in_session]


def test_session_amortizes_process_pool_spinup():
    """A reused session beats one-shot calls on a dedicated worker pool.

    With ``reuse_pool=False`` every one-shot ``solve()`` spawns (and tears
    down) its own worker process; a session spawns once.  Worker start-up
    under ``spawn`` costs hundreds of milliseconds (a fresh interpreter plus
    imports), so even a 3-instance batch shows the gap decisively — the
    canonical k=1 vs k=16 numbers live in ``BENCH.json``
    (``run_suite.py --session-bench``).
    """
    import time

    problems = [random_polytope_lp(600, 2, seed=70 + i).problem for i in range(3)]
    transport = TransportConfig(kind="process", reuse_pool=False, max_workers=1)

    start = time.perf_counter()
    one_shot = [
        solve(p, model="streaming", r=2, transport=transport, **FAST)
        for p in problems
    ]
    one_shot_wall = time.perf_counter() - start

    start = time.perf_counter()
    with repro.session(model="streaming", r=2, transport=transport, **FAST) as sess:
        in_session = [sess.run_cold(p) for p in problems]
    session_wall = time.perf_counter() - start

    # Same work, same results ...
    assert [r.basis_indices for r in one_shot] == [
        r.basis_indices for r in in_session
    ]
    # ... but the session pays worker spin-up once instead of three times.
    assert session_wall < one_shot_wall


def test_describe_model_exposes_session_capabilities():
    for model in MODELS:
        info = repro.describe_model(model)
        assert info["session"]["warm_restart"] is True
        assert info["session"]["ingest"] is True
        assert "inprocess" in info["session"]["transports"]
    assert repro.describe_model("exact")["session"]["warm_restart"] is False


def test_session_pool_pins_one_session_per_model():
    from repro import SessionPool

    with SessionPool(r=2, **FAST) as pool:
        streaming = pool.get("streaming")
        assert pool.get("streaming") is streaming  # cached, not rebuilt
        sequential = pool.get("sequential")
        assert sequential is not streaming
        assert len(pool) == 2
        assert "streaming" in pool and "mpc" not in pool
        assert sorted(pool.keys()) == ["sequential", "streaming"]

        problem = random_polytope_lp(800, 2, seed=50).problem
        pooled = streaming.run_cold(problem)
        direct = repro.solve(problem, model="streaming", r=2, **FAST)
        assert pooled.basis_indices == direct.basis_indices

    # close() closed every pooled session and sealed the pool.
    with pytest.raises(SessionError):
        pool.get("streaming")


def test_session_pool_discard_closes_one_session():
    from repro import SessionPool

    pool = SessionPool(**FAST)
    session = pool.get("sequential")
    pool.discard("sequential")
    assert "sequential" not in pool
    with pytest.raises(SessionError):
        session.solve(random_polytope_lp(200, 2, seed=50).problem)
    # A fresh session replaces the discarded one on the next get().
    assert pool.get("sequential") is not session
    pool.close()


def test_session_pool_custom_factory():
    from repro import SessionPool

    built: list[str] = []

    def factory(key: str):
        built.append(key)
        return repro.session(model=key, **FAST)

    with SessionPool(factory=factory) as pool:
        pool.get("sequential")
        pool.get("sequential")
    assert built == ["sequential"]
