"""The four workloads: their inputs, set-up, one timed operation and teardown.

Each workload runs one model on one transport, so its latency distribution
has one mode.  All four solve the four families (LP, MEB, SVM, QP) with the
practical profile and a fixed set of solver seeds per instance, all derived
from the workload seed.  ``run.py`` drives them; this module knows only what
one operation is.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import inputs, machine
from .tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: How long a server may take to announce its address.
SERVER_BOOT_TIMEOUT_S = 60.0

TERMINAL_EVENTS = ("done", "failed", "cancelled")


@dataclass
class Op:
    """One (instance, solver seed) pair; timed operations cycle through these."""

    index: int
    family: str
    seed: int
    overrides: dict
    reference: Any = None
    body: bytes = b""


@dataclass
class Sample:
    """What one operation returned; ``result`` is a ``SolveResult`` or ``None``."""

    op: int
    wall_s: float
    solve_s: float
    result: Any = None
    error: Optional[str] = None
    counts: dict = field(default_factory=dict)
    #: The operation's ``op`` span, in traced passes.
    span: Any = None


class Workload:
    """Inputs and operations of one workload; subclasses fill in the model."""

    name = ""
    model = ""
    n = 0
    d = 0
    r = 2
    #: Solver seeds per instance.  Iteration counts vary with the seed; many
    #: (instance, seed) pairs keep a run's mix of slow and fast solves, and
    #: with it the medians, close to the same from one workload seed to the
    #: next.
    seeds = 8
    #: Closed-loop clients issuing operations.
    clients = 1
    #: The percentile ``*_tail_ms`` reports.
    tail_pct = 90
    #: Config fields every operation adds to the practical profile's.
    extra_overrides: dict = {"keep_trace": False}

    def __init__(self, seed: int, n: Optional[int] = None) -> None:
        if n is not None:
            self.n = int(n)
        root = np.random.SeedSequence(seed)
        self.arrays = {
            family: inputs.make_arrays(family, self.n, self.d, np.random.default_rng(seq))
            for family, seq in zip(inputs.FAMILIES, root.spawn(len(inputs.FAMILIES)))
        }
        solver_seeds = iter(root.generate_state(self.seeds * len(inputs.FAMILIES)))
        # Practical-profile fields, derived from throwaway instances.
        from repro import SolverConfig

        problems = self.problems()
        self.tolerance = {family: problem.tolerance for family, problem in problems.items()}
        self.ops: list[Op] = []
        for _ in range(self.seeds):
            for family in inputs.FAMILIES:
                seed = int(next(solver_seeds))
                config = SolverConfig.practical(problems[family], r=self.r, seed=seed)
                overrides = {
                    "seed": seed,
                    "sample_size": config.sample_size,
                    "success_threshold": config.success_threshold,
                    **self.extra_overrides,
                }
                self.ops.append(Op(len(self.ops), family, seed, overrides))

    def problems(self) -> dict:
        """Fresh repro problem objects over this workload's arrays, by family."""
        return {
            family: inputs.build_problem(family, self.arrays[family])
            for family in inputs.FAMILIES
        }

    # -- hooks ---------------------------------------------------------- #

    def prepare(self) -> None:
        """Untimed: compute references before any set-up."""

    def open(self) -> Any:
        """Start what the operations talk to (session, server); timed as set-up."""
        raise NotImplementedError

    def warm_ops(self, rep: int) -> list[Op]:
        """The warm-up pass of set-up ``rep``: one operation per instance."""
        return self.ops[: len(inputs.FAMILIES)]

    def finish_references(self, handle: Any) -> None:
        """Untimed, after the last set-up: references the set-ups did not make."""

    def run(self, handle: Any, op: Op, tracer: Optional[Tracer]) -> Sample:
        raise NotImplementedError

    def close(self, handle: Any) -> None:
        raise NotImplementedError

    def processes(self, handle: Any) -> list[int]:
        """Pids whose peak RSS ``peak_rss_mb`` sums."""
        return [os.getpid(), *machine.workers()]

    def currency(self, result: Any) -> tuple[float, float]:
        """(rounds, Mbit) the model charges one solve, in the paper's currencies."""
        communication = result.communication
        return float(communication.rounds), communication.total_bits / 1e6

    # -- shared ---------------------------------------------------------- #

    def setup(self, rep: int, tracer: Tracer) -> tuple[Any, float, list[Sample]]:
        """One timed set-up: open, then one warm-up operation per instance."""
        with tracer.span("setup") as span:
            with tracer.span("api.open"):
                handle = self.open()
            with tracer.span("api.warmup"):
                warm = [self.run(handle, op, None) for op in self.warm_ops(rep)]
        return handle, span.duration_ns / 1e9, warm

    def check_witness(self, op: Op) -> int:
        """Constraints of the whole instance the reference witness violates."""
        return inputs.violations(
            op.family, self.arrays[op.family], op.reference.witness, self.tolerance[op.family]
        )


def fingerprint(result: Any) -> tuple:
    """What must be bit-identical to the reference: value, basis, iterations."""
    encoded = result.to_dict()
    return (
        json.dumps(encoded["value"], sort_keys=True),
        tuple(encoded["basis_indices"]),
        encoded["iterations"],
    )


def _timed_solve(call, op: Op, n: int) -> Sample:
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed operation is counted, not fatal
        wall = time.perf_counter() - start
        return Sample(op.index, wall, wall, error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    communication = result.communication
    return Sample(
        op.index,
        wall,
        wall,
        result,
        counts={
            "constraints": n,
            "max_load_bits": communication.max_load_bits,
            "max_message_bits": communication.max_message_bits,
        },
    )


class SeqXL(Workload):
    """``repro.solve(model="sequential")`` in-process on large instances."""

    name = "seq-xl"
    model = "sequential"
    n = 2_000_000
    d = 8
    r = 4
    seeds = 2 * SETUP_REPS
    tail_pct = 80

    def open(self) -> dict:
        # repro.solve opens its session per call; what a caller pays up front
        # is building the problem objects, whose packed planes (and the fused
        # kernels' float32 mirrors) are built lazily by the first solve.
        return self.problems()

    def warm_ops(self, rep: int) -> list[Op]:
        # The warm-up solves of set-up ``rep`` are the references of seed ``rep``.
        count = len(inputs.FAMILIES)
        return self.ops[rep * count : (rep + 1) * count]

    def setup(self, rep: int, tracer: Tracer) -> tuple[Any, float, list[Sample]]:
        handle, seconds, warm = super().setup(rep, tracer)
        for sample in warm:
            self.ops[sample.op].reference = sample.result
        return handle, seconds, warm

    def finish_references(self, handle: dict) -> None:
        # The seeds no set-up warmed up get one untimed solve each.
        for op in self.ops:
            if op.reference is None:
                op.reference = self.run(handle, op, None).result

    def run(self, handle: dict, op: Op, tracer: Optional[Tracer]) -> Sample:
        from repro import solve

        problem = handle[op.family]
        return _timed_solve(
            lambda: solve(problem, model=self.model, r=self.r, **op.overrides), op, self.n
        )

    def close(self, handle: dict) -> None:
        handle.clear()

    def currency(self, result: Any) -> tuple[float, float]:
        # The sequential model has no rounds and moves no bits: it is charged
        # its Clarkson iterations (one sample-solve-sweep round over the data
        # each) and the bits of the constraints it holds at its peak.
        bits = result.resources.space_peak_items * (self.d + 1) * 64
        return float(result.iterations), bits / 1e6


class SessionWorkload(Workload):
    """One ``repro.session`` on a multi-process transport; in-process references."""

    n = 100_000
    d = 3
    kind = ""
    model_kwargs: dict = {}

    def _session(self, transport):
        import repro

        return repro.session(
            model=self.model, r=self.r, transport=transport, **self.model_kwargs
        )

    def prepare(self) -> None:
        from repro import TransportConfig

        problems = self.problems()
        with self._session(TransportConfig(kind="inprocess")) as session:
            for op in self.ops:
                op.reference = session.solve(problems[op.family], **op.overrides)

    def open(self) -> dict:
        from repro import TransportConfig

        # reuse_pool=False: every set-up spawns its own workers or agents,
        # and closing the session stops them, so the leak check sees them go.
        transport = TransportConfig(kind=self.kind, max_workers=2, reuse_pool=False)
        return {"session": self._session(transport), "problems": self.problems()}

    def run(self, handle: dict, op: Op, tracer: Optional[Tracer]) -> Sample:
        session, problem = handle["session"], handle["problems"][op.family]
        return _timed_solve(lambda: session.solve(problem, **op.overrides), op, self.n)

    def close(self, handle: dict) -> None:
        handle["session"].close()


class MpcPipe(SessionWorkload):
    """MPC (delta = 0.5) on a two-worker process pool: many small messages."""

    name = "mpc-pipe"
    model = "mpc"
    kind = "process"
    model_kwargs = {"delta": 0.5}
    tail_pct = 75


class CoordTcp(SessionWorkload):
    """Coordinator (4 sites) on two loopback TCP node agents: few large messages."""

    name = "coord-tcp"
    model = "coordinator"
    kind = "tcp"
    model_kwargs = {"num_sites": 4}
    tail_pct = 95


class ServeClosed(Workload):
    """``python -m repro serve`` under two closed-loop HTTP clients."""

    name = "serve-closed"
    model = "streaming"
    n = 20_000
    d = 3
    clients = 2
    tail_pct = 95
    # Requests carry the practical-profile fields and nothing else.
    extra_overrides: dict = {}

    def prepare(self) -> None:
        from repro import solve
        from repro.server.wire import encode_problem

        problems = self.problems()
        encoded = {family: json.dumps(encode_problem(p)) for family, p in problems.items()}
        for op in self.ops:
            config = {"r": self.r, **op.overrides}
            op.body = (
                f'{{"problem": {encoded[op.family]}, "config": {json.dumps(config)}}}'
            ).encode("utf-8")
            op.reference = solve(problems[op.family], model=self.model, **config)

    def open(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            ready = selector.select(timeout=SERVER_BOOT_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            _stop_server(proc)
            raise RuntimeError(f"server did not start (said {line!r})")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        return {"proc": proc, "host": host, "port": int(port)}

    def run(self, handle: dict, op: Op, tracer: Optional[Tracer]) -> Sample:
        counts = {"constraints": self.n, "request_bytes": len(op.body), "refused": 0}
        start = time.perf_counter()
        try:
            with _maybe_span(tracer, "server.post"):
                status, body = _request(handle, "POST", "/v1/solve", op.body)
            if status != 202:
                raise _Refused(status, body)
            ticket = json.loads(body)["ticket"]["id"]
            with _maybe_span(tracer, "server.events"):
                event, data, events = _await_terminal(handle, ticket)
            with _maybe_span(tracer, "server.result_get"):
                status, body = _request(handle, "GET", f"/v1/tickets/{ticket}")
                payload = json.loads(body)
            wall = time.perf_counter() - start
        except _Refused as exc:
            counts["refused"] = 1
            wall = time.perf_counter() - start
            return Sample(op.index, wall, wall, error=str(exc), counts=counts)
        except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
            wall = time.perf_counter() - start
            return Sample(op.index, wall, wall, error=f"{type(exc).__name__}: {exc}", counts=counts)
        counts.update(
            result_bytes=len(body),
            sse_events=events,
            wait_s=payload.get("wait_s") or 0.0,
            solve_s=data.get("wall_s", 0.0),
        )
        if status != 200 or event != "done" or payload.get("status") != "done":
            counts["refused"] = int(status != 200)
            return Sample(
                op.index, wall, counts["solve_s"],
                error=f"ticket {ticket}: {event} / HTTP {status}", counts=counts,
            )
        # Decoded into a SolveResult after the timed window (see run.py).
        return Sample(op.index, wall, counts["solve_s"], payload["result"], counts=counts)

    def processes(self, handle: dict) -> list[int]:
        return [handle["proc"].pid]

    def close(self, handle: dict) -> None:
        _stop_server(handle["proc"])

    def currency(self, result: Any) -> tuple[float, float]:
        # Streaming moves no bits; Theorem 1 charges it passes and space.
        return float(result.communication.rounds), result.resources.space_peak_bits / 1e6


class _Refused(Exception):
    def __init__(self, status: int, body: bytes) -> None:
        super().__init__(f"HTTP {status}: {body[:200]!r}")


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


def _maybe_span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else _NullSpan()


def _connection(handle: dict) -> http.client.HTTPConnection:
    # One connection per request, as repro's ServiceClient does: each
    # client holds at most one open connection at a time.
    return http.client.HTTPConnection(handle["host"], handle["port"], timeout=120)


def _request(handle: dict, method: str, path: str, body: Optional[bytes] = None) -> tuple[int, bytes]:
    conn = _connection(handle)
    try:
        headers = {"Accept": "application/json"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _await_terminal(handle: dict, ticket: str) -> tuple[str, dict, int]:
    """Follow the ticket's SSE stream to its terminal event: (event, data, frames)."""
    conn = _connection(handle)
    try:
        conn.request("GET", f"/v1/tickets/{ticket}/events", headers={"Accept": "text/event-stream"})
        response = conn.getresponse()
        if response.status != 200:
            raise _Refused(response.status, response.read())
        frames, event = 0, ""
        while True:
            line = response.readline()
            if not line:
                raise ConnectionError(f"event stream of {ticket} ended without a terminal event")
            line = line.rstrip(b"\r\n")
            if line.startswith(b"event:"):
                event = line[6:].strip().decode()
                frames += 1
            elif line.startswith(b"data:") and event in TERMINAL_EVENTS:
                return event, json.loads(line[5:]), frames
    finally:
        conn.close()


def _stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (the server drains and exits 0), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()


#: Every workload ``run.py`` can run.  ``BENCHMARK.json`` declares all but
#: ``mpc-pipe``: on a 2-vCPU guest its timings spread too far between runs
#: (see README.md), so it stays runnable by hand.
WORKLOADS = {cls.name: cls for cls in (SeqXL, MpcPipe, CoordTcp, ServeClosed)}
