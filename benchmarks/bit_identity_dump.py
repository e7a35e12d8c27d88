"""Print every result of a fixed solve grid bit for bit, to diff two checkouts.

The grid is the 16 facade cells of ``tests/test_api_facade.py`` (the four
problem families times the four theorem models, seed 0, the ``FAST``
profile) plus the four baseline models on the same instances, with the
ship-all coordinator at k = 1, 4 and 7 sites.  One line per cell carries the
value and the witness as ``float.hex``, the basis indices, the iterations,
the rounds, the total and the largest-message communication bits.  Two
checkouts give the same results bit for bit when their dumps are identical::

    PYTHONPATH=src:. python benchmarks/bit_identity_dump.py > dump.txt
"""

from __future__ import annotations

from repro import solve
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


def main() -> None:
    for family, make in sorted(PROBLEMS.items()):
        problem = make()
        for model, kwargs in sorted(FACADE_KWARGS.items()):
            result = solve(problem, model=model, seed=SEED, **FAST, **kwargs)
            print(_line(f"{family}/{model}", result))
        for cell, kwargs in BASELINES.items():
            result = solve(problem, model=cell.split("/")[0], **kwargs)
            print(_line(f"{family}/{cell}", result))


if __name__ == "__main__":
    main()
