"""Importable node tasks for the transport benchmark, cluster smoke runs and probes.

These live in the package (not in ``benchmarks/run_suite.py``) because every
transport backend must be able to unpickle the function *by reference*:
spawn-based process-pool workers re-import the parent script, but standalone
``python -m repro node`` agents only share the installed package, so any task
shipped over the TCP wire has to resolve from an importable module.
"""

from __future__ import annotations

from .. import kernels
from ..fabric.transport import kept_values
from ..kernels import blas

__all__ = [
    "blas_threads_task",
    "kept_values_task",
    "transport_probe_task",
    "transport_ready_task",
]


def transport_probe_task(state, lo, hi, round_index):
    """Per-node task: touch this node's slice of the shared constraint rows.

    Reading one float per row pulls every 64-byte row (d = 8) through the
    page cache, so worker RSS honestly reflects whether the rows are private
    (pickle wire) or shared (zero-copy segments).
    """
    rows = state["problem"].constraint_pack().rows
    value = float(rows[int(lo) : int(hi), 0].sum()) + float(round_index)
    return state, value


def transport_ready_task(state):
    """Untimed readiness probe used to absorb worker start-up cost."""
    return state, "ready"


def blas_threads_task(state):
    """Per-node task: BLAS thread counts inside and after a kernel scope.

    Enters :func:`repro.kernels.use_backend` as every solver node task does
    and returns ``(inside, after)``, each a ``{library path: threads}`` map
    of the OpenBLAS runtimes this worker process found.
    """
    with kernels.use_backend(state.get("kernel")):
        inside = blas.thread_counts()
    return state, (inside, blas.thread_counts())


def kept_values_task(state):
    """Per-node task: the reference names of the values this node's worker
    keeps across sessions, sorted (empty in-process)."""
    return state, sorted(kept_values())
