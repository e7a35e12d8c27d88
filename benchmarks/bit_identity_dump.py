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
``session.ingest(family=...)`` build per family.  Two checkouts give the
same results bit for bit when their dumps are identical::

    PYTHONPATH=src:. python benchmarks/bit_identity_dump.py > dump.txt
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro import SolverConfig, session, solve
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

BASELINES = {
    "exact": dict(),
    "single_pass_streaming": dict(),
    "ship_all_coordinator/k=1": dict(num_sites=1),
    "ship_all_coordinator/k=4": dict(num_sites=4),
    "ship_all_coordinator/k=7": dict(num_sites=7),
    "classic_reweighting": dict(seed=SEED, **FAST),
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


def main() -> None:
    for family, make in sorted(PROBLEMS.items()):
        problem = make()
        for model, kwargs in sorted(FACADE_KWARGS.items()):
            result = solve(problem, model=model, seed=SEED, **FAST, **kwargs)
            print(_line(f"{family}/{model}", result))
        for cell, kwargs in BASELINES.items():
            result = solve(problem, model=cell.split("/")[0], **kwargs)
            print(_line(f"{family}/{cell}", result))
    for family, make in sorted(PROBLEMS.items()):
        for line in _problem_lines(family, make()):
            print(line)


if __name__ == "__main__":
    main()
