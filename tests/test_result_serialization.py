"""``SolveResult.to_dict`` / ``from_dict``: the JSON wire round-trip.

Service responses must survive ``json.dumps`` → ``json.loads`` →
``from_dict`` with the optimum, witness, basis, trace, resources (including
the per-round communication ledgers), metadata, and warm stats intact —
for every problem family's value/witness types (lexicographic LP values,
MEB balls, SVM/QP dataclasses, plain arrays).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import SolveResult, solve
from repro.core.result import ResourceUsage, WarmStats
from repro.problems import ConvexQuadraticProgram, MinimumEnclosingBall
from repro.workloads import (
    make_separable_classification,
    random_polytope_lp,
    svm_problem,
    uniform_ball_points,
)

FAST = dict(sample_size=300, success_threshold=0.02, max_iterations=500, seed=0)


def _problems():
    rng = np.random.default_rng(60)
    g = rng.normal(size=(700, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    h = g.sum(axis=1) * 5.0 - rng.uniform(0.5, 4.0, size=700)
    return {
        "lp": random_polytope_lp(800, 2, seed=61).problem,
        "meb": MinimumEnclosingBall(uniform_ball_points(800, 2, seed=62)),
        "svm": svm_problem(make_separable_classification(700, 2, seed=63, margin=0.4)),
        "qp": ConvexQuadraticProgram(
            q_matrix=np.eye(2) * 2.0, q_vector=np.ones(2), g_matrix=g, h_vector=h
        ),
    }


@pytest.mark.parametrize("family", sorted(_problems()))
@pytest.mark.parametrize("model", ("sequential", "coordinator"))
def test_round_trip_preserves_everything(family, model):
    problem = _problems()[family]
    kwargs = {"num_sites": 3} if model == "coordinator" else {}
    result = solve(problem, model=model, **FAST, **kwargs)

    wire = json.dumps(result.to_dict())
    restored = SolveResult.from_dict(json.loads(wire))

    assert restored.value == result.value
    assert restored.basis_indices == result.basis_indices
    assert restored.iterations == result.iterations
    assert restored.successful_iterations == result.successful_iterations
    assert restored.resources == result.resources
    assert restored.trace == result.trace
    assert restored.metadata == result.metadata
    # The derived communication summary is identical after the round-trip
    # because it is recomputed from the restored resources.
    assert restored.communication == result.communication
    # And a second encoding is a fixed point.
    assert restored.to_dict() == result.to_dict()


def test_round_trip_includes_warm_stats_from_a_session():
    problem = random_polytope_lp(900, 2, seed=64).problem
    with repro.session(model="streaming", r=2, **FAST) as sess:
        first = sess.solve(problem)
        witness = np.asarray(first.witness, dtype=float)
        direction = -(problem.c + 0.3 * np.array([-problem.c[1], problem.c[0]]))
        rhs = float(direction @ witness) - 0.05
        warm = sess.resolve_with(added=(direction.reshape(1, -1), np.array([rhs])))

    payload = json.loads(json.dumps(warm.to_dict()))
    assert payload["warm"]["warm_start"] == warm.warm.warm_start
    assert payload["warm"]["reused_bases"] == warm.warm.reused_bases
    restored = SolveResult.from_dict(payload)
    assert isinstance(restored.warm, WarmStats)
    assert restored.warm.to_dict() == warm.warm.to_dict()
    # The witness payloads are session plumbing and deliberately dropped.
    assert restored.warm.witnesses == []


def test_communication_block_carries_the_per_round_ledger():
    problem = random_polytope_lp(800, 2, seed=65).problem
    result = solve(problem, model="coordinator", num_sites=3, **FAST)
    payload = result.to_dict()
    assert payload["communication"]["total_bits"] > 0
    assert payload["communication"]["rounds"] == result.communication.rounds
    assert len(payload["communication"]["per_round"]) == len(
        result.resources.per_round
    )
    assert payload["resources"]["per_round"] == [
        {str(k): int(v) for k, v in entry.items()}
        for entry in result.resources.per_round
    ]


def test_from_dict_tolerates_unknown_resource_fields():
    result = SolveResult(
        value=1.5,
        witness=np.array([1.0, 2.0]),
        basis_indices=(3, 4),
        resources=ResourceUsage(passes=2),
    )
    payload = result.to_dict()
    payload["resources"]["a_future_currency"] = 7
    restored = SolveResult.from_dict(payload)
    assert restored.resources.passes == 2
    assert np.array_equal(restored.witness, result.witness)


def test_resources_block_carries_exactly_the_usage_fields():
    problem = random_polytope_lp(800, 2, seed=65).problem
    payload = solve(problem, model="coordinator", num_sites=3, **FAST).to_dict()
    assert set(payload["resources"]) == {
        "passes",
        "space_peak_items",
        "space_peak_bits",
        "rounds",
        "total_communication_bits",
        "max_message_bits",
        "max_machine_load_bits",
        "machine_count",
        "oracle_calls",
        "transport_retries",
        "per_round",
    }


def test_payload_with_basis_cache_counters_still_decodes():
    # Results written before the basis cache went carry its two counters.
    problem = random_polytope_lp(800, 2, seed=65).problem
    result = solve(problem, model="sequential", **FAST)
    payload = json.loads(json.dumps(result.to_dict()))
    payload["resources"].update(basis_cache_hits=0, basis_cache_misses=3)
    restored = SolveResult.from_dict(payload)
    assert restored.resources == result.resources
    assert restored.value == result.value
    assert restored.basis_indices == result.basis_indices


def test_encoder_refuses_untrusted_dataclasses():
    from dataclasses import dataclass

    @dataclass
    class NotOurs:
        x: int = 1

    result = SolveResult(value=NotOurs(), witness=None, basis_indices=())
    with pytest.raises(TypeError, match="untrusted"):
        result.to_dict()


def test_decoder_refuses_untrusted_modules():
    from repro.core.result import _decode_value

    with pytest.raises(ValueError, match="untrusted"):
        _decode_value(
            {"__kind__": "dataclass", "cls": "os.path:join", "fields": {}}
        )
