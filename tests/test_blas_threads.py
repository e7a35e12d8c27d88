"""One BLAS thread inside every solve (``repro.kernels.blas``).

Every driver run and every fabric node task enters
:func:`repro.kernels.use_backend`, which holds the process's OpenBLAS
runtimes at one thread while any solve runs and restores the caller's
thread counts when the last one leaves.  These tests pin that policy:
results do not depend on ``OPENBLAS_NUM_THREADS``, the counts are one
inside solves on every transport, and the caller's counts come back.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import solve
from repro.cluster import TcpTransport
from repro.fabric.transport import ProcessPoolTransport
from repro.kernels import blas
from repro.problems import LinearProgram
from repro.workloads import blas_threads_task, random_polytope_lp

REPO = Path(__file__).resolve().parents[1]

#: Emitted by the determinism grid's child processes: one fingerprint per
#: (family, model) cell of the facade grid in ``test_api_facade.py``.
_GRID_SCRIPT = """
import json
from repro import solve
from test_api_facade import FACADE_KWARGS, FAST, PROBLEMS, SEED, _scalar, _witness_vector

cells = {}
for family, build in sorted(PROBLEMS.items()):
    for model, kwargs in sorted(FACADE_KWARGS.items()):
        result = solve(build(), model=model, seed=SEED, **FAST, **kwargs)
        cells[f"{family}-{model}"] = {
            "value": _scalar(result.value).hex(),
            "witness": [float(x).hex() for x in _witness_vector(result.witness)],
            "basis": [int(i) for i in result.basis_indices],
            "iterations": int(result.iterations),
        }
print(json.dumps(cells))
"""


def _grid_under(threads: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    paths = [str(REPO / "src"), str(REPO / "tests"), str(REPO)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    out = subprocess.run(
        [sys.executable, "-c", _GRID_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_facade_grid_is_identical_for_any_blas_thread_count():
    """All 16 family x model cells: same value, witness, basis and
    iterations with one BLAS thread and with four."""
    single, threaded = _grid_under(1), _grid_under(4)
    assert len(single) == 16
    mismatched = sorted(cell for cell in single if single[cell] != threaded[cell])
    assert not mismatched, {cell: (single[cell], threaded[cell]) for cell in mismatched}


# ---------------------------------------------------------------------- #
# The scope inside solves
# ---------------------------------------------------------------------- #


class ProbedLP(LinearProgram):
    """An LP whose subset solves record the BLAS thread counts they ran under."""

    def __init__(self, *args, on_subset=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: list[dict[str, int]] = []
        self.on_subset = on_subset

    def solve_subset(self, indices):
        self.seen.append(blas.thread_counts())
        if self.on_subset is not None:
            self.on_subset()
        return super().solve_subset(indices)


def _probed_lp(on_subset=None) -> ProbedLP:
    base = random_polytope_lp(600, 2, seed=5).problem
    return ProbedLP(base.c, base.a, base.b, on_subset=on_subset)


def _solve_kwargs():
    return dict(seed=0, sample_size=200, success_threshold=0.05, max_iterations=300)


@pytest.fixture
def caller_threads():
    """Set every found runtime to three threads (neither one nor the
    default); put back the original counts afterwards."""
    runtimes = blas.one_thread.runtimes()
    original = [rt.get_num_threads() for rt in runtimes]
    for runtime in runtimes:
        runtime.set_num_threads(3)
    try:
        yield {rt.path: 3 for rt in runtimes}
    finally:
        for runtime, threads in zip(runtimes, original):
            runtime.set_num_threads(threads)


def test_discovery_finds_numpys_openblas():
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(config.get("name", "")).lower():
        pytest.skip("NumPy is not linked against OpenBLAS")
    runtimes = blas.one_thread.runtimes()
    assert runtimes, "no OpenBLAS runtime among the loaded libraries"
    assert {rt.path for rt in runtimes} <= set(blas.loaded_libraries())
    assert all(rt.get_num_threads() >= 1 for rt in runtimes)
    # Found once: later calls hand back the cached handles.
    assert blas.one_thread.runtimes() is runtimes


THEOREM_MODELS = ("sequential", "streaming", "coordinator", "mpc")
BASELINE_MODELS = ("exact", "single_pass_streaming", "ship_all_coordinator")


@pytest.mark.parametrize("model", THEOREM_MODELS + BASELINE_MODELS)
def test_every_runtime_runs_one_thread_inside_a_solve(model, caller_threads):
    problem = _probed_lp()
    solve(problem, model=model, **(_solve_kwargs() if model in THEOREM_MODELS else {}))
    assert problem.seen
    assert all(counts == {path: 1 for path in caller_threads} for counts in problem.seen)
    assert blas.thread_counts() == caller_threads


def test_caller_counts_return_after_a_solve_raises(caller_threads):
    def fail():
        assert blas.thread_counts() == {path: 1 for path in caller_threads}
        raise RuntimeError("subset solve failed")

    with pytest.raises(RuntimeError, match="subset solve failed"):
        solve(_probed_lp(on_subset=fail), model="sequential", **_solve_kwargs())
    assert blas.thread_counts() == caller_threads


def test_overlapping_solves_restore_after_the_last_leaves(caller_threads):
    """Solve A enters, solve B enters, A leaves (counts stay one while B
    runs), B leaves (the caller's counts return)."""
    a_inside, b_inside, a_left = threading.Event(), threading.Event(), threading.Event()
    errors: list[BaseException] = []

    def a_hook():
        a_inside.set()
        assert b_inside.wait(timeout=30)

    def b_hook():
        b_inside.set()
        assert a_left.wait(timeout=30)

    def run(problem):
        try:
            solve(problem, model="sequential", **_solve_kwargs())
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    thread_a = threading.Thread(target=run, args=(_probed_lp(on_subset=a_hook),))
    thread_b = threading.Thread(target=run, args=(_probed_lp(on_subset=b_hook),))
    thread_a.start()
    try:
        assert a_inside.wait(timeout=30)
        thread_b.start()
        thread_a.join(timeout=60)
        assert not thread_a.is_alive()
        assert blas.thread_counts() == {path: 1 for path in caller_threads}
    finally:
        a_left.set()
    thread_b.join(timeout=60)
    assert not thread_b.is_alive()
    assert not errors, errors
    assert blas.thread_counts() == caller_threads


@pytest.mark.parametrize("kind", ["process", "tcp"])
def test_node_tasks_run_one_thread_on_workers(kind):
    transport_cls = ProcessPoolTransport if kind == "process" else TcpTransport
    transport = transport_cls(max_workers=1)
    try:
        transport.init_node("blas-probe", 0, {"kernel": None})
        [(inside, after)] = transport.run_nodes("blas-probe", [0], blas_threads_task, [()])
        transport.release("blas-probe")
    finally:
        transport.close()
    assert set(inside) == set(after) == {rt.path for rt in blas.one_thread.runtimes()}
    assert all(threads == 1 for threads in inside.values())
    assert all(threads >= 1 for threads in after.values())


# ---------------------------------------------------------------------- #
# Discovery and the scope on their own
# ---------------------------------------------------------------------- #


def test_no_openblas_found_means_the_scope_does_nothing(tmp_path):
    libraries = ["/usr/lib/x86_64-linux-gnu/libmkl_rt.so.2", "/usr/lib/libc.so.6"]
    assert blas.find_runtimes(libraries) == ()
    # A path that names OpenBLAS but is not loaded is skipped, never loaded.
    assert blas.find_runtimes([str(tmp_path / "libopenblas.so.0")]) == ()
    before = blas.thread_counts()
    scope = blas.OneThreadScope(find=lambda: blas.find_runtimes(libraries))
    with scope:
        assert scope.runtimes() == ()
        assert blas.thread_counts() == before
    assert blas.thread_counts() == before


class _FakeRuntime:
    def __init__(self, threads):
        self.threads = threads
        self.calls = 0

    def get(self):
        return self.threads

    def set(self, threads):
        self.calls += 1
        self.threads = threads

    def runtime(self, path):
        return blas.BlasRuntime(path, self.get, self.set)


def test_scope_is_reference_counted_and_finds_once():
    fakes = [_FakeRuntime(4), _FakeRuntime(2)]
    finds = []

    def find():
        finds.append(1)
        return [fake.runtime(f"lib{i}") for i, fake in enumerate(fakes)]

    scope = blas.OneThreadScope(find=find)
    with scope:
        with scope:
            assert [fake.threads for fake in fakes] == [1, 1]
        assert [fake.threads for fake in fakes] == [1, 1]
    assert [fake.threads for fake in fakes] == [4, 2]
    # The caller changed its mind between solves: the next exit restores that.
    fakes[0].threads = 3
    with scope:
        assert [fake.threads for fake in fakes] == [1, 1]
    assert [fake.threads for fake in fakes] == [3, 2]
    assert len(finds) == 1
    # One set on the outermost entry and one on its exit, per runtime.
    assert [fake.calls for fake in fakes] == [4, 4]


def _forked_child_check():
    runtimes = blas.one_thread.runtimes()
    for runtime in runtimes:
        runtime.set_num_threads(3)
    with blas.one_thread:
        inside = [rt.get_num_threads() for rt in runtimes]
    after = [rt.get_num_threads() for rt in runtimes]
    if inside != [1] * len(runtimes) or after != [3] * len(runtimes):
        raise SystemExit(1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_child_forked_inside_a_solve_restores_its_own_counts():
    """A pool worker forked mid-solve starts outside any solve: its own
    first solve restores the child's counts on exit."""
    with blas.one_thread:
        child = multiprocessing.get_context("fork").Process(target=_forked_child_check)
        child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
    assert child.exitcode == 0
