"""Print every result of a fixed solve grid bit for bit, to diff two checkouts.

The grid is the 16 facade cells of ``tests/test_api_facade.py`` (the four
problem families times the four theorem models, seed 0, the ``FAST``
profile) plus the four baseline models on the same instances, with the
ship-all coordinator at k = 1, 4 and 7 sites.  One line per cell carries the
value and the witness as ``float.hex``, the basis indices, the iterations,
the rounds, the total and the largest-message communication bits.

After the grid come the code paths that take problems apart and put them
together, on the same four instances: ``SolverConfig.practical`` at r = 2, 3
and 4 (sample size and ``float.hex`` of the success threshold), and the
sha256 of the JSON wire payload of ``encode_problem``, of a
decode-then-encode round trip, of one ``extend_problem`` edit, and of one
``session.ingest(family=...)`` build per family.

Last comes one sequential solve per family at n = 200,000, d = 8 and r = 4
(``SolverConfig.practical``, seed 0, the instances of
``tests/test_kernels.py``), in the grid's line format.  These solves take
several iterations and boosts over more than one kernel row block, so the
violation sweep and the Gumbel draw run across block boundaries and on
boosted weights.

After those 72 lines comes one line per theorem-model solve whose whole
result matters: the sha256 of ``json.dumps(result.to_dict(), sort_keys=True)``
with ``metadata["kernel_backend"]`` dropped, so every field a result carries
(metadata, ``per_round`` ledgers, oracle and basis-cache counters, the
trace, warm-start stats) is compared.  Per family the cells are the four
facade solves; each theorem model at ``sample_size=n`` (the small-instance
paths); one ``session.solve`` and three ``resolve_with`` edits per model (an
addition, a removal, both), which run the warm paths; the coordinator on its
aggregation tree; MPC on one machine; streaming with a permuted arrival
order; streaming, coordinator and MPC on ``TransportConfig(kind="process")``;
and, per model and on ``TransportConfig(kind="tcp")`` and on
``TransportConfig(kind="process", shared_memory=False)``, one session that
solves the instance, solves the same object again (the workers keep it, so
only a reference travels) and re-solves it with a block added.
The hashes do not depend on the kernel backend, so the dump run under
``REPRO_KERNEL_BACKEND=numpy`` and ``fused`` must agree too.  Two checkouts
give the same results bit for bit when their dumps are identical::

    PYTHONPATH=src:. python benchmarks/bit_identity_dump.py > dump.txt
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro import SolverConfig, TransportConfig, session, solve
from repro.api.session import extend_problem
from repro.server.wire import decode_problem, encode_problem
from tests.test_api_facade import (
    FACADE_KWARGS,
    FAST,
    PROBLEMS,
    SEED,
    _scalar,
    _witness_vector,
)
from tests.test_kernels import FAMILIES, _build

#: Size of the multi-block sequential solves: three kernel row blocks.
LARGE_N, LARGE_D, LARGE_R = 200_000, 8, 4

BASELINES = {
    "exact": dict(),
    "single_pass_streaming": dict(),
    "ship_all_coordinator/k=1": dict(num_sites=1),
    "ship_all_coordinator/k=4": dict(num_sites=4),
    "ship_all_coordinator/k=7": dict(num_sites=7),
    "classic_reweighting": dict(seed=SEED, **FAST),
}

#: The transports of the session cells that solve one problem object twice.
SESSION_TRANSPORTS = {
    "tcp": TransportConfig(kind="tcp"),
    "pipe": TransportConfig(kind="process", shared_memory=False),
}


def _line(cell: str, result) -> str:
    usage = result.resources
    return " ".join(
        [
            cell,
            float.hex(_scalar(result.value)),
            ",".join(float.hex(float(x)) for x in _witness_vector(result.witness)),
            ",".join(str(int(i)) for i in result.basis_indices),
            str(result.iterations),
            str(usage.passes),
            str(usage.rounds),
            str(usage.total_communication_bits),
            str(usage.max_message_bits),
        ]
    )


#: One added constraint block per family, in its native form.
ADDED = {
    "lp": lambda p: (p.a[:4][::-1] * 0.5, p.b[:4] + 0.25),
    "meb": lambda p: p.points[:4] * 1.5,
    "svm": lambda p: (p.points[:4] * 1.5, p.labels[:4]),
    "qp": lambda p: (p.g_matrix[:4] * 2.0, p.h_vector[:4] - 0.5),
}

#: The blocks one ingestion build per family feeds, and its static fields.
INGEST = {
    "lp": lambda p: (
        dict(c=p.c),
        [(p.a[:300], p.b[:300]), np.column_stack([p.a[300:], p.b[300:]])],
    ),
    "meb": lambda p: (dict(), [p.points[:500], p.points[500:]]),
    "svm": lambda p: (
        dict(),
        [(p.points[:450], p.labels[:450]), (p.points[450:], p.labels[450:])],
    ),
    "qp": lambda p: (
        dict(q_matrix=p.q_matrix, q_vector=p.q_vector),
        [(p.g_matrix, p.h_vector)],
    ),
}


def _digest(problem) -> str:
    return hashlib.sha256(json.dumps(encode_problem(problem)).encode()).hexdigest()


def _problem_lines(family: str, problem) -> list[str]:
    lines = []
    for r in (2, 3, 4):
        config = SolverConfig.practical(problem, r=r)
        lines.append(
            f"{family}/practical/r={r} {config.sample_size} "
            f"{float.hex(config.success_threshold)}"
        )
    payload = json.loads(json.dumps(encode_problem(problem)))
    lines.append(f"{family}/encode {_digest(problem)}")
    lines.append(f"{family}/roundtrip {_digest(decode_problem(payload))}")
    edited, _ = extend_problem(problem, added=ADDED[family](problem), removed=[0, 2, 7])
    lines.append(f"{family}/extend {_digest(edited)}")
    static, chunks = INGEST[family](problem)
    with session(model="sequential", seed=SEED, **FAST) as sess:
        handle = sess.ingest(family=family, **static)
        for chunk in chunks:
            handle.feed(chunk)
        lines.append(f"{family}/ingest {_digest(handle.finalize(solve=False))}")
    return lines


def _result_digest(result) -> str:
    payload = result.to_dict()
    payload["metadata"].pop("kernel_backend", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _result_cells(family: str, problem, facade: dict) -> dict:
    """Every whole-result cell of one family, keyed by cell name."""
    n = problem.num_constraints
    cells = {f"{family}/{model}": result for model, result in facade.items()}
    for model, kwargs in sorted(FACADE_KWARGS.items()):
        small = dict(FAST, sample_size=n)
        cells[f"{family}/{model}/sample_size=n"] = solve(
            problem, model=model, seed=SEED, **small, **kwargs
        )
    for model, kwargs in sorted(FACADE_KWARGS.items()):
        added = ADDED[family](problem)
        with session(model=model, seed=SEED, **FAST, **kwargs) as sess:
            cells[f"{family}/{model}/session/solve"] = sess.solve(problem)
            cells[f"{family}/{model}/session/add"] = sess.resolve_with(added=added)
            cells[f"{family}/{model}/session/remove"] = sess.resolve_with(
                removed=[0, 2, 7]
            )
            cells[f"{family}/{model}/session/edit"] = sess.resolve_with(
                added=added, removed=[1, 3]
            )
    cells[f"{family}/coordinator/tree"] = solve(
        problem, model="coordinator", seed=SEED, **FAST,
        **FACADE_KWARGS["coordinator"], topology="tree",
    )
    cells[f"{family}/mpc/num_machines=1"] = solve(
        problem, model="mpc", seed=SEED, **FAST, **FACADE_KWARGS["mpc"],
        num_machines=1,
    )
    order = np.random.default_rng(SEED).permutation(n)
    cells[f"{family}/streaming/order"] = solve(
        problem, model="streaming", seed=SEED, **FAST,
        **FACADE_KWARGS["streaming"], order=order,
    )
    for model in ("streaming", "coordinator", "mpc"):
        cells[f"{family}/{model}/process"] = solve(
            problem, model=model, seed=SEED, **FAST, **FACADE_KWARGS[model],
            transport=TransportConfig(kind="process"),
        )
    for name, transport in SESSION_TRANSPORTS.items():
        for model in ("streaming", "coordinator", "mpc"):
            with session(
                model=model, seed=SEED, **FAST, **FACADE_KWARGS[model],
                transport=transport,
            ) as sess:
                cell = f"{family}/{model}/session/{name}"
                cells[f"{cell}/solve"] = sess.solve(problem)
                cells[f"{cell}/again"] = sess.solve(problem)
                cells[f"{cell}/add"] = sess.resolve_with(added=ADDED[family](problem))
    return cells


def main() -> None:
    facade: dict = {}
    for family, make in sorted(PROBLEMS.items()):
        problem = make()
        for model, kwargs in sorted(FACADE_KWARGS.items()):
            result = solve(problem, model=model, seed=SEED, **FAST, **kwargs)
            facade.setdefault(family, {})[model] = result
            print(_line(f"{family}/{model}", result))
        for cell, kwargs in BASELINES.items():
            result = solve(problem, model=cell.split("/")[0], **kwargs)
            print(_line(f"{family}/{cell}", result))
    for family, make in sorted(PROBLEMS.items()):
        for line in _problem_lines(family, make()):
            print(line)
    for family in FAMILIES:
        problem = _build(family, n=LARGE_N, d=LARGE_D)
        config = SolverConfig.practical(problem, r=LARGE_R, seed=0)
        result = solve(problem, model="sequential", config=config)
        print(_line(f"{family}/sequential/n={LARGE_N}", result))
    for family, make in sorted(PROBLEMS.items()):
        for cell, result in _result_cells(family, make(), facade[family]).items():
            print(f"{cell} {_result_digest(result)}")


if __name__ == "__main__":
    main()
