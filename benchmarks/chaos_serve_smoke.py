"""Live-serve chaos smoke: SIGKILL a worker mid-ticket, correct result.

Boots an in-process :class:`~repro.server.ReproServer` whose sessions run on
the **process transport** (pool worker processes) or, with ``--kind tcp``,
on the **TCP transport** (loopback node agents), submits a large
coordinator-model ticket, and — as soon as the SSE stream reports the first
solver iteration — SIGKILLs one of the session's live workers.  The
transport must detect the crash, respawn the worker, replay its journal, and
finish the ticket with a ``repro-result/1`` payload **bit-identical** to the
fault-free in-process ``repro.solve()`` reference.  Any divergence, hang
(deadline), or raw pool error exits non-zero.

This is the CI chaos gate for the full service path: HTTP front end →
SolverService → session → transport crash recovery.

Run with::

    PYTHONPATH=src python benchmarks/chaos_serve_smoke.py [--kind tcp]
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

import repro
from repro.server import ReproServer, ServiceClient
from repro.workloads import random_polytope_lp

CONFIG = dict(
    r=2,
    num_sites=3,
    sample_size=400,
    success_threshold=0.02,
    max_iterations=500,
    seed=0,
    keep_trace=True,
)
TRANSPORT = {"max_workers": 2, "reuse_pool": False}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--timeout", type=float, default=180.0)
    parser.add_argument("--kind", choices=("process", "tcp"), default="process")
    args = parser.parse_args()

    problem = random_polytope_lp(args.n, 2, seed=31).problem
    reference = repro.solve(problem, model="coordinator", **CONFIG)

    with ReproServer(
        port=0,
        model="coordinator",
        max_workers=1,
        transport=dict(TRANSPORT, kind=args.kind),
        **CONFIG,
    ) as server:
        client = ServiceClient(server.url)
        session = server._pool.get("coordinator")
        transport = session._transport
        assert transport is not None, f"expected a {args.kind} transport"
        victim_pid = transport.worker_pids()[0]

        killed = threading.Event()
        ticket = client.submit(problem)

        def _kill_on_first_iteration() -> None:
            for event in client.events(ticket.id, timeout=args.timeout):
                if event["event"] == "iteration" and not killed.is_set():
                    os.kill(victim_pid, signal.SIGKILL)
                    killed.set()
                    print(f"SIGKILLed worker pid {victim_pid} mid-ticket", flush=True)
                if event["event"] in ("done", "failed", "cancelled"):
                    return

        watcher = threading.Thread(target=_kill_on_first_iteration, daemon=True)
        watcher.start()
        result = ticket.result(timeout=args.timeout)
        watcher.join(timeout=30)

        failures: list[str] = []
        if not killed.is_set():
            failures.append(
                "the worker was never killed (no iteration event observed)"
            )
        if result.value != reference.value:
            failures.append(f"value diverged: {result.value} != {reference.value}")
        if result.basis_indices != reference.basis_indices:
            failures.append("certified basis diverged")
        if result.iterations != reference.iterations:
            failures.append(
                f"iteration story diverged: {result.iterations} != "
                f"{reference.iterations}"
            )
        if (
            result.resources.total_communication_bits
            != reference.resources.total_communication_bits
        ):
            failures.append("communication ledger diverged")
        health = client.healthz()
        model_health = health["readiness"]["models"]["coordinator"]
        restarts = model_health["transport"].get("total_restarts", 0)
        if killed.is_set() and restarts < 1 and not model_health["transport"].get(
            "degraded"
        ):
            failures.append(
                "the kill left no recovery trace (no restart, no degradation)"
            )

        print(
            f"chaos-serve-smoke: kind={args.kind} killed={killed.is_set()} "
            f"restarts={restarts} "
            f"value={result.value!r} iterations={result.iterations} "
            f"bits={result.resources.total_communication_bits}",
            flush=True,
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr, flush=True)
            return 1
        print("chaos-serve-smoke: PASS (bit-identical after worker SIGKILL)")
        return 0


if __name__ == "__main__":
    sys.exit(main())
