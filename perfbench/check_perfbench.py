"""Tests of the benchmark's own logic, plus a tiny-size run of every workload.

Not collected by a plain ``pytest`` (the file name does not start with
``test_``): run it explicitly with ``python3 -m pytest perfbench/check_perfbench.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import inputs, stats, tracing  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, fingerprint  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- #
# Tail percentile: the highest with at least 10 samples beyond it
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (39, 50), (40, 75), (50, 80), (99, 80), (100, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_choice(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_percentile_keeps_ten_beyond_and_is_highest():
    for count in range(20, 1200):
        pct = stats.tail_percentile(count)
        assert stats.samples_beyond(count, pct) >= 10
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        assert all(stats.samples_beyond(count, p) < 10 for p in higher)


@pytest.mark.parametrize("pct", stats.TAIL_LADDER)
def test_min_samples_is_the_first_count_with_ten_beyond(pct):
    count = stats.min_samples_for(pct)
    assert stats.samples_beyond(count, pct) >= 10
    assert stats.samples_beyond(count - 1, pct) < 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.percentile([3.0], 99) == 3.0


def test_every_workload_gets_ten_samples_beyond_its_tail():
    for workload in WORKLOADS.values():
        assert stats.samples_beyond(stats.min_samples_for(workload.tail_pct), workload.tail_pct) >= 10


# ---------------------------------------------------------------------- #
# Throughput and spans
# ---------------------------------------------------------------------- #


def test_throughput_is_sum_over_sum():
    # Two solves of 100 constraints taking 1 s and 3 s: 200 / 4 = 50 per
    # second, not the mean of the per-solve rates (75).
    assert stats.throughput([100, 100], [1.0, 3.0]) == 50.0
    with pytest.raises(ValueError):
        stats.throughput([1], [0.0])


def _span(tracer, name, start, end, parent=None, op=None, counts=None):
    span = tracing.Span(next(tracer._ids), name, parent.id if parent else None, op)
    span.start_ns, span.end_ns, span.counts = start, end, counts
    tracer.spans.append(span)
    return span


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    op = _span(tracer, "op", 0, 100, op=1)
    run = _span(tracer, "engine.run", 5, 95, op, 1)
    draw = _span(tracer, "engine.draw", 10, 40, run, 1)
    gumbel = _span(tracer, "kernels.gumbel", 12, 32, draw, 1)
    measure = _span(tracer, "engine.measure", 50, 90, run, 1)
    sweep = _span(tracer, "kernels.sweep", 55, 85, measure, 1)
    self_ns = tracing.SpanIndex(tracer.spans).self_ns
    assert self_ns[op.id] == 10
    assert self_ns[run.id] == 90 - 30 - 40
    assert self_ns[draw.id] == 10
    assert self_ns[gumbel.id] == 20
    assert self_ns[measure.id] == 10
    assert self_ns[sweep.id] == 30


def test_op_metrics_use_self_time_and_outermost_counts():
    tracer = tracing.Tracer()
    op = _span(tracer, "op", 0, 10_000_000, op=1, counts={"max_load_bits": 2000})
    run = _span(tracer, "engine.run", 0, 9_000_000, op, 1, {
        "iterations": 4, "successful": 3, "cache_hits": 1, "cache_misses": 3,
    })
    draw = _span(tracer, "engine.draw", 1_000_000, 5_000_000, run, 1)
    _span(tracer, "kernels.gumbel", 2_000_000, 4_000_000, draw, 1, {"rows": 2_000_000})
    outer = _span(tracer, "fabric.run_nodes", 5_000_000, 8_000_000, run, 1, {"tasks": 4})
    _span(tracer, "fabric.run_nodes", 6_000_000, 7_000_000, outer, 1, {"tasks": 4})
    values = tracing.op_metrics(tracer.spans, [op])
    assert values["engine.draw_ms"] == pytest.approx(2.0)
    assert values["kernels.gumbel_ms"] == pytest.approx(2.0)
    assert values["kernels.gumbel_mrows"] == pytest.approx(2.0)
    assert values["fabric.run_nodes_ms"] == pytest.approx(3.0)  # 2 outer-self + 1 inner
    assert values["fabric.run_nodes_calls"] == 1
    assert values["fabric.node_tasks"] == 4
    assert values["engine.iterations"] == 4
    assert values["engine.success_ratio"] == pytest.approx(0.75)
    assert values["engine.cache_hit_ratio"] == pytest.approx(0.25)
    assert values["algorithms.outside_loop_ms"] == pytest.approx(1.0)
    assert values["trace.coverage"] == pytest.approx(0.9)
    assert values["fabric.max_load_kbits"] == pytest.approx(2.0)


def test_tracer_nests_spans_and_inherits_the_op():
    tracer = tracing.Tracer()
    op_id = tracer.new_op()
    with tracer.span("op", op_id) as op:
        with tracer.span("engine.run") as inner:
            pass
    assert inner.parent == op.id and inner.op == op_id
    assert op.duration_ns >= inner.duration_ns >= 0


def test_instrumentation_restores_every_original():
    from repro.core.engine import ClarksonEngine
    from repro.fabric import wirecodec

    targets = list(tracing.targets())
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _n, _c in targets]
    original_run, original_dumps = ClarksonEngine.run, wirecodec.dumps
    instrumentation = tracing.Instrumentation(tracing.Tracer())
    instrumentation.install()
    assert ClarksonEngine.run is not original_run
    assert wirecodec.dumps is not original_dumps
    instrumentation.remove()
    instrumentation.remove()
    assert [(owner, attr, vars(owner).get(attr)) for owner, attr, _n, _c in targets] == before


def test_traced_codec_records_bytes():
    from repro.fabric import wirecodec

    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    instrumentation.install()
    try:
        raw = wirecodec.dumps((1, np.arange(10.0)))
        wirecodec.loads(raw)
    finally:
        instrumentation.remove()
    codec = [span for span in tracer.spans if span.name == "fabric.codec"]
    assert [span.counts["bytes"] for span in codec] == [len(raw), len(raw)]


# ---------------------------------------------------------------------- #
# Names, units and the declaration
# ---------------------------------------------------------------------- #


def test_metric_names_match_the_pattern():
    for name in [*END_TO_END, *PER_LAYER]:
        assert stats.check_metric_name(name) == name
    for bad in ("", "solve p50", "ms/op", "-lead", "x" * 65, "é"):
        with pytest.raises(ValueError):
            stats.check_metric_name(bad)


def test_declaration_matches_the_code():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])


# ---------------------------------------------------------------------- #
# The correctness gate
# ---------------------------------------------------------------------- #


def test_inputs_are_fixed_by_the_seed():
    for family in inputs.FAMILIES:
        a = inputs.make_arrays(family, 50, 3, np.random.default_rng(5))
        b = inputs.make_arrays(family, 50, 3, np.random.default_rng(5))
        assert all(np.array_equal(a[key], b[key]) for key in a)


@pytest.mark.parametrize("family", inputs.FAMILIES)
def test_witness_check_accepts_the_optimum_and_catches_a_bad_witness(family):
    from repro import solve

    arrays = inputs.make_arrays(family, 300, 2, np.random.default_rng(3))
    problem = inputs.build_problem(family, arrays)
    result = solve(problem, model="sequential", seed=1)
    assert inputs.violations(family, arrays, result.witness, problem.tolerance) == 0
    if family == "meb":
        bad = type(result.witness)(result.witness.center, result.witness.radius * 0.5)
    elif family == "svm":
        bad = result.witness * 0.5
    else:
        bad = result.witness + 10.0 * (arrays.get("c", arrays.get("q_vector")))
    assert inputs.violations(family, arrays, bad, problem.tolerance) > 0


def test_fingerprint_sees_a_changed_basis():
    from repro import solve

    arrays = inputs.make_arrays("lp", 300, 2, np.random.default_rng(3))
    result = solve(inputs.build_problem("lp", arrays), model="sequential", seed=1)
    same = solve(inputs.build_problem("lp", arrays), model="sequential", seed=1)
    assert fingerprint(result) == fingerprint(same)
    same.basis_indices = tuple(reversed(same.basis_indices)) + (0,)
    assert fingerprint(result) != fingerprint(same)


# ---------------------------------------------------------------------- #
# Tiny-size runs: every declared metric is emitted with its unit
# ---------------------------------------------------------------------- #

SMOKE_N = {"seq-xl": 20_000, "mpc-pipe": 4_000, "coord-tcp": 4_000, "serve-closed": 2_000}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--n", str(SMOKE_N[workload]),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
