"""The canonical perf suite: one scenario grid, one machine-readable BENCH.json.

This is the arbiter for every perf-focused PR: a fixed grid of
``model x problem family x size tier`` scenarios, each driven through the
``repro.solve()`` front door with the practical profile and a pinned seed, so
two runs of the same tier on the same machine measure the same work.  The
output is ``BENCH.json`` (schema ``repro-bench/6``, documented in
``docs/performance.md``): per-scenario wall time, iteration count, violation
oracle calls, modelled peak bytes, plus the **communication currencies** of
the fabric — rounds/passes, total measured bits, the largest single message,
and the per-node load peak — and the geometric-mean wall time that headline
comparisons quote.

With ``--baseline`` the suite gates regressions in *both* families of
currencies: wall time (``--max-regression``, default 2x) and communication
(``--max-bits-regression``, default 2x total bits, and ``--max-extra-rounds``,
default +1 round), so a perf PR cannot buy wall-clock speed with silent
communication blow-ups.

Schema ``repro-bench/3`` additionally records the active kernel backend per
scenario; ``--backends numpy fused`` runs the grid once per backend and emits
a ``backend_speedups`` block (geomean wall-time ratio of every backend over
the first one listed).  The ``xlarge`` tier (n = 10^7, sequential model only
by default) is the kernel layer's headline tier.

Schema ``repro-bench/4`` adds the ``transport_bench`` block
(``--transport-bench``): for each worker count, the process transport's
*dispatch* cost — shipping the problem to every worker, installing node
states, and running task rounds — is timed with shared memory off (the
pickle wire) and on (zero-copy segments + the pickle-free frame codec),
alongside each worker's peak RSS (``VmHWM``) and private footprint (USS,
the honest zero-copy metric: shared pages don't count).
``--min-transport-speedup`` gates the shm-over-pickle dispatch ratio in CI.

Schema ``repro-bench/5`` adds ``wire="tcp"`` cells to the same block: the
identical dispatch workload run through the cluster subsystem's
:class:`~repro.cluster.transport.TcpTransport` (loopback node agents, real
sockets, length-prefixed wirecodec frames), with per-agent VmHWM/USS, and a
``tcp_overhead`` map (tcp wall / pickle-wire wall per worker count) that
quantifies what crossing a real socket costs relative to a local pipe.

Schema ``repro-bench/6`` drops the ``cache_hits``, ``cache_misses`` and
``cache_hit_rate`` columns with the basis cache they counted (no measured
solve ever hit it).  ``--baseline`` and ``--history`` read neither column,
so they still read the older snapshots.

Usage::

    PYTHONPATH=src python benchmarks/run_suite.py --tier small -o BENCH.json
    PYTHONPATH=src python benchmarks/run_suite.py --tier medium --repeats 5
    # kernel-backend comparison on the large-input tier
    PYTHONPATH=src python benchmarks/run_suite.py --tier xlarge \
        --backends numpy fused --repeats 1
    # CI regression gate: wall time and communication vs the baseline
    PYTHONPATH=src python benchmarks/run_suite.py --tier small \
        --baseline benchmarks/bench_baseline_small.json --max-regression 2.0
    # zero-copy data plane: dispatch latency + per-worker RSS, shm vs pickle
    PYTHONPATH=src python benchmarks/run_suite.py --transport-bench \
        --transport-only --transport-workers 2 8 -o BENCH-transport.json
    # print the checked-in snapshot geomeans per tier/backend
    PYTHONPATH=src python benchmarks/run_suite.py --history
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import SolverConfig, TransportConfig, solve
from repro import session as open_session
from repro.core.lptype import LPTypeProblem
from repro.problems.meb import MinimumEnclosingBall
from repro.problems.qp import ConvexQuadraticProgram
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

SCHEMA = "repro-bench/6"

#: Constraint counts per tier (shared by all four problem families).
TIERS = {
    "small": 2_000,
    "medium": 100_000,
    "large": 250_000,
    "xlarge": 10_000_000,
}

#: Ambient dimension of every scenario (the paper's regime is n >> d).  The
#: xlarge tier uses a wider d so that the constraint sweeps are matvec-bound
#: (the regime the fused kernels target) rather than pure memory traffic.
DIMENSION = 3
TIER_DIMENSIONS = {"small": 3, "medium": 3, "large": 3, "xlarge": 8}

MODELS = ("sequential", "streaming", "coordinator", "mpc")
PROBLEMS = ("lp", "meb", "svm", "qp")

#: Default model list per tier.  The xlarge tier times the kernel layer, not
#: the fabric simulators, so it runs the sequential model only (the other
#: models can still be requested explicitly with ``--models``).
TIER_MODELS = {"xlarge": ("sequential",)}

#: Clarkson ``r`` per tier (default 2).  At n = 10^7 the r = 2 eps-net sample
#: is ~10^5.5 rows, so the in-sample working-set solves — identical across
#: kernel backends — dominate wall time; r = 4 shrinks the sample to ~n^(1/4)
#: (the paper's memory-lean regime for very large n) and puts the tier in the
#: full-array-sweep regime the kernel layer targets.
TIER_R = {"xlarge": 4}

#: Model-specific overrides applied on top of the practical profile.
MODEL_OVERRIDES = {
    "sequential": {},
    "streaming": {},
    "coordinator": {"num_sites": 4},
    "mpc": {"delta": 0.5},
}


def _random_qp(n: int, d: int, seed: int) -> ConvexQuadraticProgram:
    """A strictly convex QP with ``n`` constraints, feasible by construction."""
    rng = np.random.default_rng(seed)
    q_matrix = np.diag(np.linspace(1.0, 2.0, d))
    q_vector = rng.normal(size=d)
    normals = rng.normal(size=(n, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchor = rng.uniform(-1.0, 1.0, size=d)
    slack = rng.uniform(0.1, 1.0, size=n)
    h_vector = normals @ anchor - slack
    return ConvexQuadraticProgram(q_matrix, q_vector, normals, h_vector)


def _build_problem(family: str, n: int, seed: int, d: int = DIMENSION) -> LPTypeProblem:
    if family == "lp":
        return random_polytope_lp(n, d, seed=seed).problem
    if family == "meb":
        return MinimumEnclosingBall(uniform_ball_points(n, d, seed=seed))
    if family == "svm":
        return svm_problem(make_separable_classification(n, d, seed=seed))
    if family == "qp":
        return _random_qp(n, d, seed)
    raise ValueError(f"unknown problem family {family!r}")


def _scenario_seed(family: str, model: str, n: int) -> int:
    """A stable per-scenario seed (instance and solver share the grid key).

    ``zlib.crc32`` rather than ``hash()``: the latter is salted per process,
    which would re-seed every run of the suite.
    """
    return zlib.crc32(f"{family}:{model}:{n}".encode()) % (2**31)


def _peak_bytes(result, problem: LPTypeProblem) -> int:
    """Modelled peak footprint of the run in bytes (per-model currency).

    streaming: peak stored bits; sequential: peak materialised constraints
    at ``bit_size`` bits each; mpc: peak per-machine load; coordinator:
    total communication.  See docs/performance.md.
    """
    res = result.resources
    if res.space_peak_bits:
        return res.space_peak_bits // 8
    if res.space_peak_items:
        return res.space_peak_items * problem.bit_size() // 8
    if res.max_machine_load_bits:
        return res.max_machine_load_bits // 8
    return res.total_communication_bits // 8


def _objective(result) -> float | None:
    value = result.value
    scalar = getattr(value, "objective", None)
    if scalar is None:
        scalar = getattr(value, "radius", None)
    if scalar is None:
        scalar = getattr(value, "squared_norm", None)
    try:
        return round(float(scalar), 9) if scalar is not None else None
    except (TypeError, ValueError):
        return None


@dataclass
class Scenario:
    family: str
    model: str
    tier: str
    n: int
    d: int = DIMENSION
    backend: str | None = None

    @property
    def scenario_id(self) -> str:
        base = f"{self.family}:{self.model}:{self.tier}"
        # Backend-qualified ids only when a backend was explicitly requested,
        # so default runs keep matching schema-v2 baselines.
        return base if self.backend is None else f"{base}:{self.backend}"

    def run(self, repeats: int) -> dict:
        seed = _scenario_seed(self.family, self.model, self.n)
        problem = _build_problem(self.family, self.n, seed, d=self.d)
        config = SolverConfig.practical(
            problem,
            r=TIER_R.get(self.tier, 2),
            keep_trace=False,
            seed=seed,
            kernel_backend=self.backend,
        )
        overrides = MODEL_OVERRIDES[self.model]

        walls: list[float] = []
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = solve(problem, model=self.model, config=config, **overrides)
            walls.append(time.perf_counter() - start)

        res = result.resources
        communication = result.communication
        return {
            "id": self.scenario_id,
            "problem": self.family,
            "model": self.model,
            "tier": self.tier,
            "n": self.n,
            "d": self.d,
            "kernel_backend": result.metadata.get("kernel_backend"),
            "seed": seed,
            "wall_time_s": round(statistics.median(walls), 6),
            "wall_times_s": [round(w, 6) for w in walls],
            "iterations": result.iterations,
            "oracle_calls": int(getattr(res, "oracle_calls", 0)),
            "peak_bytes": int(_peak_bytes(result, problem)),
            "objective": _objective(result),
            # Communication currencies (schema repro-bench/2): rounds is the
            # model's synchronisation count (stream passes for streaming).
            "rounds": int(communication.rounds),
            "total_comm_bits": int(communication.total_bits),
            "max_message_bits": int(communication.max_message_bits),
            "max_load_bits": int(communication.max_load_bits),
        }


#: Session-amortisation scenario: instances per batch and their size.
SESSION_BATCH = 16
SESSION_N = 2_000
#: How many one-shot (k=1) sessions are timed for the per-solve baseline.
SESSION_ONE_SHOT_REPEATS = 3


def session_amortization(
    batch: int = SESSION_BATCH, n: int = SESSION_N
) -> dict:
    """Per-solve latency: one-shot sessions (k=1) vs one session reused k times.

    Both sides run the streaming model on a dedicated one-worker
    ``ProcessPoolTransport`` (``reuse_pool=False``, so nothing is shared
    between one-shot calls — the pre-session behaviour).  The k=1 side pays
    worker spin-up on every solve; the k=``batch`` side pays it once at
    session creation, which is the amortisation the session API exists for.
    Emitted as the ``session_amortization`` block of ``BENCH.json``.
    """
    problems = [
        random_polytope_lp(n, DIMENSION, seed=900 + i).problem for i in range(batch)
    ]
    transport = TransportConfig(kind="process", reuse_pool=False, max_workers=1)
    config = SolverConfig.practical(problems[0], r=2, keep_trace=False, seed=0)

    def _solve_in(sess, problem):
        return sess.solve(problem, keep_trace=False)

    one_shot_times: list[float] = []
    for i in range(min(SESSION_ONE_SHOT_REPEATS, batch)):
        start = time.perf_counter()
        with open_session(
            model="streaming", config=config, transport=transport
        ) as sess:
            _solve_in(sess, problems[i])
        one_shot_times.append(time.perf_counter() - start)

    start = time.perf_counter()
    with open_session(model="streaming", config=config, transport=transport) as sess:
        for problem in problems:
            _solve_in(sess, problem)
    batch_wall = time.perf_counter() - start

    per_solve_k1 = statistics.median(one_shot_times)
    per_solve_k = batch_wall / batch
    return {
        "model": "streaming",
        "transport": "process (reuse_pool=False, max_workers=1)",
        "n": n,
        "batch": batch,
        "per_solve_s_k1": round(per_solve_k1, 6),
        "per_solve_s_k16": round(per_solve_k, 6),
        "batch_wall_s": round(batch_wall, 6),
        "amortization_speedup": round(per_solve_k1 / per_solve_k, 3)
        if per_solve_k > 0
        else None,
    }


# --------------------------------------------------------------------- #
# Transport data plane: dispatch latency + per-worker memory, shm vs pickle
# --------------------------------------------------------------------- #

#: Transport-bench defaults: the xlarge problem shape (n = 10^7, d = 8) and
#: the worker counts whose per-worker footprint the RSS-flatness claim spans.
TRANSPORT_WORKERS = (2, 8)
TRANSPORT_ROUNDS = 4
TRANSPORT_REPEATS = 3


# The probe tasks live in repro.workloads so that standalone node agents
# (python -m repro node) can unpickle them by reference; spawn workers could
# re-import this script, but a TCP agent only shares the installed package.
from repro.workloads.transport_probe import (  # noqa: E402
    transport_probe_task as _transport_probe_task,
    transport_ready_task as _transport_ready_task,
)


def _proc_kb(pid: int, filename: str, fields: tuple) -> int | None:
    """Sum of ``fields`` (kB) from ``/proc/<pid>/<filename>``; None off-Linux."""
    try:
        total = 0
        with open(f"/proc/{pid}/{filename}") as handle:
            for line in handle:
                if line.split(":", 1)[0] in fields:
                    total += int(line.split()[1])
        return total
    except (OSError, ValueError, IndexError):
        return None


def _worker_memory_kb(pids) -> dict:
    """Per-worker/agent VmHWM (peak RSS) and USS (private pages) in kB.

    USS — ``Private_Clean + Private_Dirty`` from ``smaps_rollup`` — is the
    zero-copy headline: pages mapped from a shared segment are *shared*, so
    a worker reading the whole problem through shm keeps a near-empty
    private footprint while the pickle wire charges it the full copy.
    Takes plain pids so the pool workers and the TCP transport's node agents
    are probed identically.
    """
    hwm, uss = [], []
    for pid in pids:
        hwm.append(_proc_kb(pid, "status", ("VmHWM",)))
        uss.append(_proc_kb(pid, "smaps_rollup", ("Private_Clean", "Private_Dirty")))
    def _stats(values):
        known = [v for v in values if v is not None]
        if not known:
            return {"per_worker": values, "mean": None, "max": None}
        return {
            "per_worker": values,
            "mean": int(statistics.mean(known)),
            "max": max(known),
        }
    return {"vmhwm_kb": _stats(hwm), "uss_kb": _stats(uss)}


def _transport_cell(problem, workers: int, wire: str, rounds: int, repeats: int) -> dict:
    from repro.fabric.transport import ProcessPoolTransport, SharedRef, new_session

    shared_memory = wire == "shm"
    if wire == "tcp":
        from repro.cluster.transport import TcpTransport

        transport = TcpTransport(max_workers=workers)
    else:
        transport = ProcessPoolTransport(max_workers=workers, shared_memory=shared_memory)
    transport.warm_up()
    # ``warm_up`` returns once every worker has booted (interpreter + imports,
    # ~1s under ``spawn``).  One throwaway round also makes each worker import
    # the probe tasks' module, so every timed repeat measures dispatch.
    ready = new_session()
    for node in range(workers):
        transport.init_node(ready, node, {"node": node})
    transport.run_nodes(
        ready, list(range(workers)), _transport_ready_task, [()] * workers
    )
    transport.release(ready)
    n = problem.num_constraints
    bounds = np.linspace(0, n, workers + 1).astype(int)
    reference = np.zeros(problem.dimension)
    walls: list[float] = []
    memory: dict = {}
    try:
        for _ in range(max(1, repeats)):
            session = new_session()
            start = time.perf_counter()
            transport.init_shared(session, "problem", problem)
            for node in range(workers):
                transport.init_node(
                    session, node, {"problem": SharedRef("problem"), "x": reference}
                )
            for round_index in range(rounds):
                transport.run_nodes(
                    session,
                    list(range(workers)),
                    _transport_probe_task,
                    [
                        (int(bounds[i]), int(bounds[i + 1]), round_index)
                        for i in range(workers)
                    ],
                )
            walls.append(time.perf_counter() - start)
            # Memory observed while the session is still live (states held).
            memory = _worker_memory_kb(transport.worker_pids())
            transport.release(session)
    finally:
        transport.close()
    return {
        "workers": workers,
        "wire": wire,
        "shared_memory": shared_memory,
        "active": bool(getattr(transport, "shared_memory", False)) if shared_memory else False,
        "rounds": rounds,
        "repeats": repeats,
        "dispatch_wall_s": round(statistics.median(walls), 6),
        "dispatch_walls_s": [round(w, 6) for w in walls],
        **memory,
    }


def transport_bench(
    n: int | None = None,
    workers_list: tuple | list = TRANSPORT_WORKERS,
    rounds: int = TRANSPORT_ROUNDS,
    repeats: int = TRANSPORT_REPEATS,
) -> dict:
    """The ``transport_bench`` block: dispatch cost per wire on the LP family.

    One xlarge-shaped LP (``n`` overridable for CI smoke budgets) is shipped
    and dispatched through a fresh transport per cell — ``workers x {pickle
    wire, shared memory, tcp}`` (the tcp cells run the identical workload
    through :class:`~repro.cluster.transport.TcpTransport` with loopback
    node agents) — and each cell reports the median wall of ``init_shared +
    per-node init + rounds x run_nodes`` plus per-worker VmHWM/USS read
    before release.  ``speedups`` maps each worker count to pickle-wall /
    shm-wall; ``tcp_overhead`` maps it to tcp-wall / pickle-wall.
    """
    size = TIERS["xlarge"] if n is None else int(n)
    d = TIER_DIMENSIONS["xlarge"]
    seed = _scenario_seed("lp", "transport", size)
    problem = _build_problem("lp", size, seed, d=d)
    pack = problem.constraint_pack()  # built once, outside every timed region
    cells = []
    for workers in workers_list:
        for wire in ("pickle", "shm", "tcp"):
            cell = _transport_cell(problem, int(workers), wire, rounds, repeats)
            cells.append(cell)
            uss = cell.get("uss_kb", {}).get("max")
            print(
                f"transport n={size} workers={workers} {wire}: "
                f"{cell['dispatch_wall_s']:.4f}s dispatch, "
                f"max worker USS {uss} kB"
            )
    by_key = {(c["workers"], c["wire"]): c for c in cells}
    speedups = {}
    tcp_overhead = {}
    for workers in workers_list:
        pickle_cell = by_key[(int(workers), "pickle")]
        shm_cell = by_key[(int(workers), "shm")]
        tcp_cell = by_key[(int(workers), "tcp")]
        if shm_cell["dispatch_wall_s"] > 0:
            speedups[str(workers)] = round(
                pickle_cell["dispatch_wall_s"] / shm_cell["dispatch_wall_s"], 3
            )
        if pickle_cell["dispatch_wall_s"] > 0:
            tcp_overhead[str(workers)] = round(
                tcp_cell["dispatch_wall_s"] / pickle_cell["dispatch_wall_s"], 3
            )
    return {
        "family": "lp",
        "n": size,
        "d": d,
        "array_bytes": int(pack.rows.nbytes + pack.rhs.nbytes),
        "rounds": rounds,
        "repeats": repeats,
        "cells": cells,
        "speedups": speedups,
        "min_speedup": min(speedups.values()) if speedups else None,
        "tcp_overhead": tcp_overhead,
    }


def build_grid(
    tier: str,
    models: list[str],
    problems: list[str],
    backends: list[str | None] | None = None,
    n: int | None = None,
) -> list[Scenario]:
    size = TIERS[tier] if n is None else int(n)
    d = TIER_DIMENSIONS.get(tier, DIMENSION)
    return [
        Scenario(family=family, model=model, tier=tier, n=size, d=d, backend=backend)
        for backend in (backends or [None])
        for family in problems
        for model in models
    ]


def geomean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def backend_speedups(scenarios: list[dict], backends: list[str]) -> dict:
    """Geomean wall-time speedup of each backend over the first one listed.

    Scenarios are matched cell-by-cell (family, model, tier); the headline
    number of the kernel layer is ``backend_speedups["fused"]`` of an xlarge
    ``--backends numpy fused`` run.
    """
    by_backend: dict[str, dict[tuple, float]] = {}
    for row in scenarios:
        key = (row["problem"], row["model"], row["tier"])
        by_backend.setdefault(row["kernel_backend"], {})[key] = row["wall_time_s"]
    reference = backends[0]
    out = {}
    for backend in backends[1:]:
        ratios = [
            base_wall / wall
            for key, base_wall in by_backend.get(reference, {}).items()
            for wall in [by_backend.get(backend, {}).get(key)]
            if wall and base_wall > 0
        ]
        out[backend] = round(geomean(ratios), 3) if ratios else None
    return {"reference": reference, "speedups": out}


def print_history(bench_dir: str | None = None) -> int:
    """Print the checked-in snapshot geomeans, grouped per tier and backend."""
    import pathlib

    root = pathlib.Path(bench_dir) if bench_dir else pathlib.Path(__file__).parent
    rows = []
    for path in sorted(root.glob("*.json")):
        try:
            with open(path) as handle:
                report = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if not str(report.get("schema", "")).startswith("repro-bench/"):
            continue
        by_backend: dict[str, list[float]] = {}
        for scenario in report.get("scenarios", []):
            backend = scenario.get("kernel_backend") or "default"
            by_backend.setdefault(backend, []).append(scenario["wall_time_s"])
        for backend, walls in sorted(by_backend.items()):
            rows.append(
                (
                    path.name,
                    report.get("schema", "?"),
                    report.get("tier", "?"),
                    backend,
                    len(walls),
                    geomean(walls),
                )
            )
        speedups = report.get("backend_speedups")
        if speedups:
            pairs = ", ".join(
                f"{backend}={ratio}x" for backend, ratio in speedups["speedups"].items()
            )
            rows.append(
                (path.name, "", "", f"speedup vs {speedups['reference']}", "", pairs)
            )
        transport = report.get("transport_bench")
        if transport:
            for cell in transport.get("cells", []):
                # repro-bench/5 cells name their wire; older snapshots only
                # carry the shared_memory flag.
                wire = cell.get("wire") or (
                    "shm" if cell.get("shared_memory") else "pickle"
                )
                uss = (cell.get("uss_kb") or {}).get("max")
                rows.append(
                    (
                        path.name,
                        "",
                        f"n={transport['n']}",
                        f"transport {wire} w={cell['workers']}",
                        f"{uss or '?'}kB",
                        f"{cell['dispatch_wall_s']:.4f}s",
                    )
                )
            pairs = ", ".join(
                f"w={workers}: {ratio}x"
                for workers, ratio in transport.get("speedups", {}).items()
            )
            if pairs:
                rows.append((path.name, "", "", "transport shm speedup", "", pairs))
            tcp_pairs = ", ".join(
                f"w={workers}: {ratio}x"
                for workers, ratio in transport.get("tcp_overhead", {}).items()
            )
            if tcp_pairs:
                rows.append(
                    (path.name, "", "", "transport tcp overhead", "", tcp_pairs)
                )
    if not rows:
        print(f"no repro-bench snapshots found under {root}")
        return 1
    print(f"{'snapshot':40} {'schema':14} {'tier':8} {'backend':22} {'cells':>5} geomean")
    for name, schema, tier, backend, cells, value in rows:
        value_text = f"{value:.4f}s" if isinstance(value, float) else str(value)
        print(f"{name:40} {schema:14} {tier:8} {backend:22} {str(cells):>5} {value_text}")
    return 0


def _communication_failures(
    scenario: dict,
    base: dict,
    max_bits_regression: float,
    max_extra_rounds: int,
) -> list[str]:
    """Communication-currency gate for one scenario (schema v2 baselines).

    Fails when the measured total bits exceed ``max_bits_regression`` times
    the baseline, or when the run takes more than ``max_extra_rounds``
    additional rounds/passes.  Baselines without communication columns
    (schema v1) skip the gate for that scenario.
    """
    if "total_comm_bits" not in base or "rounds" not in base:
        return []
    problems = []
    base_bits = int(base["total_comm_bits"])
    bits = int(scenario.get("total_comm_bits", 0))
    if base_bits > 0 and bits > max_bits_regression * base_bits:
        problems.append(
            f"total_comm_bits {bits} > {max_bits_regression:.1f}x baseline {base_bits}"
        )
    rounds = int(scenario.get("rounds", 0))
    base_rounds = int(base["rounds"])
    if rounds > base_rounds + max_extra_rounds:
        problems.append(
            f"rounds {rounds} > baseline {base_rounds} + {max_extra_rounds}"
        )
    return problems


def compare_to_baseline(
    report: dict,
    baseline_path: str,
    max_regression: float,
    noise_floor_s: float = 0.015,
    max_bits_regression: float = 2.0,
    max_extra_rounds: int = 1,
) -> int:
    """Per-scenario regression gate; returns a process exit code.

    Wall time: the gated ratio is computed against ``max(baseline,
    noise_floor_s)``: single-digit-millisecond scenarios (whose wall times
    are dominated by scheduler noise on shared CI runners) only fail once
    they regress past the absolute floor times ``max_regression``, not on
    jitter.  Both the raw vs-baseline ratio and the gated vs-floor ratio are
    reported.

    Communication: measured bits and rounds are deterministic (no noise
    floor needed) — more than ``max_bits_regression`` times the baseline
    bits, or more than ``max_extra_rounds`` extra rounds, fails the gate.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    base_by_id = {s["id"]: s for s in baseline.get("scenarios", [])}
    failures = []
    missing = []
    for scenario in report["scenarios"]:
        base = base_by_id.get(scenario["id"])
        if base is None or base["wall_time_s"] <= 0:
            # A silently skipped scenario would make the gate pass vacuously;
            # an unmatched id means the baseline is stale — fail loudly.
            print(f"[missing-baseline] {scenario['id']}: no usable baseline entry")
            missing.append(scenario["id"])
            continue
        raw_ratio = scenario["wall_time_s"] / base["wall_time_s"]
        gated_ratio = scenario["wall_time_s"] / max(base["wall_time_s"], noise_floor_s)
        comm_problems = _communication_failures(
            scenario, base, max_bits_regression, max_extra_rounds
        )
        reasons = []
        if gated_ratio > max_regression:
            reasons.append(f"{gated_ratio:.2f}x wall")
        reasons.extend(comm_problems)
        marker = "FAIL" if reasons else "ok"
        floored = " (floored)" if base["wall_time_s"] < noise_floor_s else ""
        comm_note = ("; " + "; ".join(comm_problems)) if comm_problems else ""
        print(
            f"[{marker}] {scenario['id']}: {scenario['wall_time_s']:.4f}s "
            f"vs baseline {base['wall_time_s']:.4f}s = {raw_ratio:.2f}x, "
            f"gated {gated_ratio:.2f}x{floored}, "
            f"{scenario.get('total_comm_bits', 0)} comm bits, "
            f"{scenario.get('rounds', 0)} rounds{comm_note}"
        )
        if reasons:
            failures.append((scenario["id"], "; ".join(reasons)))
    if missing:
        print(
            f"{len(missing)} scenario(s) have no baseline entry in {baseline_path}; "
            f"refresh the baseline to cover: {', '.join(missing)}"
        )
    if failures:
        print(
            f"{len(failures)} scenario(s) regressed (wall time or communication): "
            f"{', '.join(f'{i} ({reason})' for i, reason in failures)}"
        )
    if missing or failures:
        return 1
    print(
        f"no scenario regressed more than {max_regression:.1f}x wall time, "
        f"{max_bits_regression:.1f}x bits, or +{max_extra_rounds} rounds vs "
        f"{baseline_path}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=sorted(TIERS), default="small")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--models", nargs="+", default=None, choices=MODELS)
    parser.add_argument("--problems", nargs="+", default=list(PROBLEMS), choices=PROBLEMS)
    parser.add_argument(
        "--backends",
        nargs="+",
        default=None,
        help=(
            "kernel backends to run the grid on (e.g. numpy fused); with more "
            "than one, the report gains a backend_speedups block relative to "
            "the first.  Default: the resolved default backend."
        ),
    )
    parser.add_argument(
        "--n",
        type=int,
        default=None,
        help="override the tier's constraint count (CI smoke budgets)",
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help="print the checked-in benchmark snapshots' geomeans per tier/backend and exit",
    )
    parser.add_argument("-o", "--output", default="BENCH.json")
    parser.add_argument(
        "--baseline", default=None, help="baseline BENCH.json to gate regressions against"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="maximum allowed wall-time ratio vs the baseline (with --baseline)",
    )
    parser.add_argument(
        "--noise-floor-s",
        type=float,
        default=0.015,
        help="baseline wall times are clamped up to this before the ratio test",
    )
    parser.add_argument(
        "--max-bits-regression",
        type=float,
        default=2.0,
        help="maximum allowed total-communication-bits ratio vs the baseline",
    )
    parser.add_argument(
        "--max-extra-rounds",
        type=int,
        default=1,
        help="maximum allowed extra rounds/passes vs the baseline",
    )
    parser.add_argument(
        "--session-bench",
        action="store_true",
        help=(
            "also measure session amortisation (per-solve latency at k=1 vs "
            "k=16 solves through one session on a ProcessPoolTransport) and "
            "emit it as the session_amortization block"
        ),
    )
    parser.add_argument(
        "--transport-bench",
        action="store_true",
        help=(
            "also measure the process-transport data plane (dispatch wall + "
            "per-worker RSS/USS, shared memory vs pickle wire) and emit it as "
            "the transport_bench block"
        ),
    )
    parser.add_argument(
        "--transport-only",
        action="store_true",
        help="skip the scenario grid; run only the transport bench (implies --transport-bench)",
    )
    parser.add_argument(
        "--transport-n",
        type=int,
        default=None,
        help="constraint count for the transport bench (default: the xlarge tier's n)",
    )
    parser.add_argument(
        "--transport-workers",
        type=int,
        nargs="+",
        default=list(TRANSPORT_WORKERS),
        help="worker counts for the transport bench cells",
    )
    parser.add_argument(
        "--transport-rounds", type=int, default=TRANSPORT_ROUNDS,
        help="task rounds per transport-bench repeat",
    )
    parser.add_argument(
        "--transport-repeats", type=int, default=TRANSPORT_REPEATS,
        help="full dispatch cycles per transport-bench cell (median reported)",
    )
    parser.add_argument(
        "--min-transport-speedup",
        type=float,
        default=None,
        help=(
            "fail unless shared memory beats the pickle wire by at least this "
            "dispatch ratio at every measured worker count (CI gate)"
        ),
    )
    args = parser.parse_args(argv)

    if args.history:
        return print_history()

    if args.transport_only:
        args.transport_bench = True
        grid = []
    else:
        models = args.models or list(TIER_MODELS.get(args.tier, MODELS))
        grid = build_grid(args.tier, models, args.problems, args.backends, n=args.n)
    scenarios = []
    for scenario in grid:
        row = scenario.run(max(1, args.repeats))
        scenarios.append(row)
        print(
            f"{row['id']}: {row['wall_time_s']:.4f}s "
            f"[{row['kernel_backend']}], {row['iterations']} iterations, "
            f"{row['oracle_calls']} oracle calls"
        )

    report = {
        "schema": SCHEMA,
        "tier": args.tier,
        "repeats": args.repeats,
        "dimension": TIER_DIMENSIONS.get(args.tier, DIMENSION),
        "n": args.n if args.n is not None else TIERS[args.tier],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "scenarios": scenarios,
        # A transport-only run solves nothing: no geomean to report.
        "geomean_wall_time_s": (
            round(geomean([s["wall_time_s"] for s in scenarios]), 6)
            if scenarios
            else None
        ),
        "total_comm_bits": sum(s["total_comm_bits"] for s in scenarios),
    }
    if args.backends and len(args.backends) > 1:
        report["backend_speedups"] = backend_speedups(scenarios, args.backends)
        for backend, ratio in report["backend_speedups"]["speedups"].items():
            print(
                f"backend speedup {backend} vs {args.backends[0]}: {ratio}x geomean"
            )
    if args.session_bench:
        report["session_amortization"] = session_amortization()
        amort = report["session_amortization"]
        print(
            f"session amortization: {amort['per_solve_s_k1']:.4f}s/solve at k=1 "
            f"vs {amort['per_solve_s_k16']:.4f}s/solve at k={amort['batch']} "
            f"({amort['amortization_speedup']}x)"
        )
    if args.transport_bench:
        report["transport_bench"] = transport_bench(
            n=args.transport_n,
            workers_list=args.transport_workers,
            rounds=args.transport_rounds,
            repeats=args.transport_repeats,
        )
        for workers, ratio in report["transport_bench"]["speedups"].items():
            print(f"transport shm speedup at {workers} workers: {ratio}x dispatch")
        for workers, ratio in report["transport_bench"]["tcp_overhead"].items():
            print(f"transport tcp overhead at {workers} workers: {ratio}x of pickle")
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    summary = (
        f"geomean wall time: {report['geomean_wall_time_s']:.4f}s"
        if scenarios
        else "no solve scenario ran"
    )
    print(f"{summary} -> {args.output}")

    if args.min_transport_speedup is not None:
        transport = report.get("transport_bench") or {}
        minimum = transport.get("min_speedup")
        if minimum is None:
            print("--min-transport-speedup requires --transport-bench results")
            return 1
        if minimum < args.min_transport_speedup:
            print(
                f"transport speedup gate FAILED: min shm-over-pickle dispatch "
                f"ratio {minimum}x < required {args.min_transport_speedup}x"
            )
            return 1
        print(
            f"transport speedup gate ok: min {minimum}x >= "
            f"{args.min_transport_speedup}x"
        )

    if args.baseline:
        return compare_to_baseline(
            report,
            args.baseline,
            args.max_regression,
            args.noise_floor_s,
            args.max_bits_regression,
            args.max_extra_rounds,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
