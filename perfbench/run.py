"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload seq-xl --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the traced
pass and prints the per-layer metrics instead.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the environment block and the machine probe.  A full record of the
run (samples, failures, spans) is written under ``perfbench/out/``.  The
command exits non-zero if any operation failed, any result differed from its
reference, or a process or shared-memory segment outlived the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

OUT = HERE / "out"

#: End-to-end metrics (``--trace 0``) and their units; see README.md.
END_TO_END = {
    "setup_s": "s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "mconstraints_per_s": "Mconstraints/s",
    "ticket_p50_ms": "ms",
    "ticket_tail_ms": "ms",
    "tickets_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rounds_per_solve": "count",
    "comm_mbits_per_solve": "Mbit",
    "ok_ratio": "fraction",
}

#: Per-layer metrics (``--trace 1``), per solve or ticket, and their units.
PER_LAYER = {
    "api.open_s": "s",
    "api.warmup_s": "s",
    "engine.draw_ms": "ms",
    "engine.measure_ms": "ms",
    "engine.boost_ms": "ms",
    "engine.iterations": "count",
    "engine.success_ratio": "fraction",
    "engine.cache_hit_ratio": "fraction",
    "algorithms.outside_loop_ms": "ms",
    "problems.solve_subset_ms": "ms",
    "problems.solve_subset_calls": "count",
    "problems.subset_rows": "count",
    "kernels.sweep_ms": "ms",
    "kernels.sweep_mrows": "Mrows",
    "kernels.sweep_gb": "GB-computed",
    "kernels.gumbel_ms": "ms",
    "kernels.gumbel_mrows": "Mrows",
    "kernels.count_matrix_ms": "ms",
    "kernels.solve_many_ms": "ms",
    "fabric.init_node_ms": "ms",
    "fabric.init_node_calls": "count",
    "fabric.init_shared_ms": "ms",
    "fabric.run_nodes_ms": "ms",
    "fabric.run_nodes_calls": "count",
    "fabric.node_tasks": "count",
    "fabric.deliver_ms": "ms",
    "fabric.deliver_calls": "count",
    "fabric.codec_ms": "ms",
    "fabric.codec_mb": "MB",
    "fabric.shm_export_ms": "ms",
    "fabric.release_ms": "ms",
    "fabric.max_load_kbits": "kbit",
    "fabric.max_message_kbits": "kbit",
    "cluster.warm_up_s": "s",
    "cluster.ship_mb": "MB",
    "server.post_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.solve_ms": "ms",
    "server.events_ms": "ms",
    "server.result_get_ms": "ms",
    "server.request_kb": "KB",
    "server.result_kb": "KB",
    "server.sse_events": "count",
    "server.refused": "count",
    "trace.coverage": "fraction",
    "trace.overhead_pct": "%",
}


def _drive(workload, handle, tracer, *, first=0, deadline=None, count=None, min_samples=0, cycle=1):
    """Issue operations round-robin from ``workload.clients`` closed-loop clients.

    Operation ``i`` of this call is pair ``(first + i) % len(ops)``.  Stops
    issuing once ``count`` operations were started, or once the deadline
    has passed, at least ``min_samples`` were started and the number started
    is a multiple of ``cycle``.  With a tracer, every operation is wrapped
    in an ``op`` span.
    """
    lock = threading.Lock()
    issued = [0]
    samples = []

    def take():
        with lock:
            index = issued[0]
            if count is not None:
                if index >= count:
                    return None
            elif (
                index >= min_samples
                and index % cycle == 0
                and time.perf_counter() >= deadline
            ):
                return None
            issued[0] += 1
            return index

    def client():
        while (index := take()) is not None:
            op = workload.ops[(first + index) % len(workload.ops)]
            if tracer is None:
                sample = workload.run(handle, op, None)
            else:
                span = tracer.begin("op", tracer.new_op())
                sample = workload.run(handle, op, tracer)
                tracer.end(span)
                span.counts = sample.counts
                sample.span = span
            samples.append((index, sample))

    threads = [threading.Thread(target=client) for _ in range(workload.clients - 1)]
    for thread in threads:
        thread.start()
    client()
    for thread in threads:
        thread.join()
    return [sample for _, sample in sorted(samples, key=lambda item: item[0])]


def _decode(sample) -> None:
    """Serve results arrive as ``repro-result/1`` JSON; decode them (untimed)."""
    if isinstance(sample.result, dict):
        from repro import SolveResult

        sample.result = SolveResult.from_dict(sample.result)


def measure(name: str, seed: int, seconds: float, trace: bool, n=None) -> tuple[dict, dict]:
    """Run one workload; returns (the printed result, the full record)."""
    from perfbench import machine, stats, tracing
    from perfbench.workloads import SETUP_REPS, WORKLOADS, fingerprint

    environment = machine.environment()
    probe_start = machine.probe()
    workload = WORKLOADS[name](seed, n)
    workload.prepare()
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer) if trace else None
    failures: list[str] = []
    warm, setup_s, timed, handle = [], [], [], None
    untraced = traced = []
    window = 0.0
    # Enough samples for the tail percentile, and a pass over every pair.
    min_samples = max(stats.min_samples_for(workload.tail_pct), len(workload.ops))
    try:
        if instrumentation is not None:
            instrumentation.install()
        for rep in range(SETUP_REPS):
            handle, seconds_taken, warm_samples = workload.setup(rep, tracer)
            setup_s.append(seconds_taken)
            warm.extend(warm_samples)
            last = rep == SETUP_REPS - 1
            if last:
                workload.finish_references(handle)
            if not trace:
                # A third of the timed window after each set-up: the samples
                # then span most of the run, which damps the machine's own
                # drift, and three sessions (or servers) instead of one.
                start = time.perf_counter()
                timed += _drive(
                    workload, handle, None, first=len(timed),
                    deadline=start + seconds / SETUP_REPS,
                    min_samples=min_samples - len(timed) if last else 0,
                )
                window += time.perf_counter() - start
            if not last:
                workload.close(handle)
                handle = None
        if trace:
            # Untraced first, then the same operations traced: the overhead.
            # Whole cycles over the pairs, so per-operation counts such as
            # engine.iterations are fixed by the seed.
            instrumentation.remove()
            untraced = _drive(
                workload, handle, None,
                deadline=time.perf_counter() + seconds / 2, cycle=len(workload.ops),
            )
            instrumentation.install()
            traced = _drive(workload, handle, tracer, count=len(untraced))
            instrumentation.remove()
            timed = untraced + traced
        peak_rss_mb = sum(machine.vmhwm_mb(pid) for pid in workload.processes(handle))
    finally:
        if instrumentation is not None:
            instrumentation.remove()
        if handle is not None:
            workload.close(handle)
    leaked = machine.leaks()
    if leaked:
        machine.reap()
    failures += [f"leak: {item}" for item in leaked]

    # Correctness, untimed: every result bit-identical to its reference, and
    # every reference witness feasible for its whole instance.
    for sample in warm + timed:
        _decode(sample)
    for op in workload.ops:
        if op.reference is None:
            failures.append(f"op {op.index}: no reference")
        elif (violated := workload.check_witness(op)) != 0:
            failures.append(f"op {op.index} ({op.family}): reference witness violates {violated} constraints")
    references = {op.index: fingerprint(op.reference) for op in workload.ops if op.reference is not None}
    for sample in warm + timed:
        if sample.error is not None:
            failures.append(f"op {sample.op}: {sample.error}")
        elif fingerprint(sample.result) != references.get(sample.op):
            failures.append(f"op {sample.op}: result differs from its reference")
    attempted = len(warm) + len(timed)
    failed = len(failures)
    probe_end = machine.probe()

    if not trace:
        walls = [s.wall_s for s in timed]
        solves = [s.solve_s for s in timed]
        currencies = [workload.currency(op.reference) for op in workload.ops if op.reference is not None]
        values = {
            "setup_s": stats.median(setup_s),
            "solve_p50_ms": stats.median(solves) * 1e3,
            "solve_tail_ms": stats.percentile(solves, workload.tail_pct) * 1e3,
            "mconstraints_per_s": stats.throughput(
                [s.counts.get("constraints", 0) for s in timed], solves
            ) / 1e6,
            "ticket_p50_ms": stats.median(walls) * 1e3,
            "ticket_tail_ms": stats.percentile(walls, workload.tail_pct) * 1e3,
            "tickets_per_s": len(timed) / window,
            "peak_rss_mb": peak_rss_mb,
            "rounds_per_solve": math.fsum(c[0] for c in currencies) / max(1, len(currencies)),
            "comm_mbits_per_solve": math.fsum(c[1] for c in currencies) / max(1, len(currencies)),
            "ok_ratio": max(0.0, (attempted - failed) / attempted),
        }
        units = END_TO_END
    else:
        values = tracing.op_metrics(tracer.spans, [s.span for s in traced])
        per_setup = tracing.setup_metrics(tracer.spans)
        values.update({key: stats.median(found) for key, found in per_setup.items()})
        values["trace.overhead_pct"] = (
            math.fsum(s.wall_s for s in traced) / math.fsum(s.wall_s for s in untraced) - 1.0
        ) * 100.0
        units = PER_LAYER

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            stats.check_metric_name(key): {"value": float(values[key]), "unit": unit}
            for key, unit in units.items()
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "n": workload.n,
        "tail_pct": workload.tail_pct,
        "environment": environment,
        "probe": {"start": probe_start, "end": probe_end},
        "setup_s": setup_s,
        "ops": [
            {
                "family": op.family,
                "seed": op.seed,
                "iterations": op.reference.iterations if op.reference else None,
                "rounds": op.reference.communication.rounds if op.reference else None,
            }
            for op in workload.ops
        ],
        "samples": [
            {"op": s.op, "wall_ms": s.wall_s * 1e3, "solve_ms": s.solve_s * 1e3}
            for s in timed
        ],
        "failures": failures,
        "result": result,
    }
    if trace:
        record["spans"] = tracer.as_json()
    return result, record


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="override the instance size (smoke runs)")
    args = parser.parse_args(argv)
    from perfbench import machine

    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.n)
    finally:
        # A run that failed half-way may leave workers, agents or a server.
        machine.reap()
        machine.stop_helpers()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str), encoding="utf-8")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "probe": record["probe"]}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
