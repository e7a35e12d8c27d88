"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import SolverConfig
from repro.core.clarkson import ClarksonModel
from repro.core.engine import ViolationStats
from repro.fabric import shm
from repro.fabric.transport import _close_shared_transports
from repro.workloads import random_feasible_lp, random_polytope_lp


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read()
    except OSError:
        return ""


def cmdline(pid: int) -> str:
    """The command line of ``pid`` (empty once it is gone)."""
    return _read(f"/proc/{pid}/cmdline").replace("\0", " ").strip()


def live_descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        raw = _read(f"/proc/{entry}/stat") if entry.isdigit() else ""
        if raw:
            state, parent = raw[raw.rfind(")") + 2 :].split()[:2]
            if state != "Z":
                children.setdefault(int(parent), []).append(int(entry))
    found, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return sorted(found)


def _leftovers() -> list[str]:
    """Worker processes, node agents and segments this run still holds.

    multiprocessing's resource tracker lives as long as this process by
    design, so it is not a leftover.
    """
    commands = {pid: cmdline(pid) for pid in live_descendants()}
    processes = [
        f"pid {pid}: {command}"
        for pid, command in commands.items()
        if "resource_tracker" not in command
    ]
    mine = f"{shm.SEGMENT_PREFIX}{os.getpid()}_"
    segments = [name for name in shm.leaked_segments() if name.startswith(mine)]
    return processes + segments


@pytest.fixture(scope="session", autouse=True)
def leaves_nothing_behind():
    """Fail the run if it leaves a worker, an agent or a segment behind.

    The shared transports are closed first (interpreter exit would close
    them too); exiting processes get up to 10 s.
    """
    yield
    _close_shared_transports()
    deadline = time.monotonic() + 10.0
    while _leftovers() and time.monotonic() < deadline:
        time.sleep(0.1)
    leftovers = _leftovers()
    if leftovers:
        pytest.fail("the test run left behind:\n" + "\n".join(leftovers))


@pytest.fixture(scope="session")
def small_lp():
    """A small feasible LP used by many unit tests (400 constraints, d=2)."""
    return random_feasible_lp(400, 2, seed=11).problem


@pytest.fixture(scope="session")
def medium_lp():
    """A medium LP whose sampling path is reachable with test parameters."""
    return random_polytope_lp(1600, 2, seed=7).problem


@pytest.fixture(scope="session")
def tiny_lp():
    """A tiny LP (30 constraints, d=2) for exhaustive / axiom checks."""
    return random_feasible_lp(30, 2, seed=3).problem


def fast_config(r: int = 2, sample_size: int = 400, threshold: float = 0.02):
    """Cheap meta-algorithm configuration used by the integration tests.

    The paper-exact Lemma 2.2 constants need millions of constraints before
    the sub-linear regime kicks in; the integration tests instead fix a small
    explicit sample size and success threshold so that the iterative path
    (weight boosts, multiple passes/rounds) is exercised quickly.  Solver
    correctness does not depend on these choices — termination requires the
    violator set to be empty.
    """
    return SolverConfig(
        r=r, sample_size=sample_size, success_threshold=threshold, max_iterations=500
    )


def assert_objective_close(value_a, value_b, tolerance: float = 1e-5) -> None:
    """Assert that two LP objective values agree up to a tolerance."""
    a = getattr(value_a, "objective", value_a)
    b = getattr(value_b, "objective", value_b)
    assert np.isfinite(a) and np.isfinite(b)
    assert abs(a - b) <= tolerance * max(1.0, abs(a), abs(b)), (a, b)


class ScriptedModel(ClarksonModel):
    """A model for deterministic engine-loop tests.

    Every ``draw`` returns the same fixed sample, and ``measure`` plays back
    a scripted sequence of ``(num_violators, weight_fraction)`` pairs.
    """

    def __init__(self, problem, script, sample=range(5)):
        super().__init__(problem, SolverConfig(seed=0), None)
        self.sample = np.asarray(sample, dtype=int)
        self.script = list(script)
        self.boosts = 0

    def draw(self, sample_size):
        return self.sample

    def measure(self, sample, basis):
        num_violators, fraction = self.script.pop(0)
        return ViolationStats(num_violators=num_violators, weight_fraction=fraction)

    def boost(self, stats):
        self.boosts += 1
