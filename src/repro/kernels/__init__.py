"""Pluggable kernel backends for the solver's hot array loops.

The registry knows two backends:

* ``numpy`` — the reference implementation (the pre-kernel-layer code path,
  full-array temporaries).
* ``fused`` — NumPy-blocked sweeps with the certified float32 margin pass;
  the default.

Selection precedence, resolved at solve time (never at import time):

1. an explicit name (``SolverConfig.kernel_backend`` / ``use_backend``);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the default (``fused``).

An unrecognised name (from ``use_backend`` or the environment) falls back
to the default with a one-time warning.  The active backend is carried in a
:mod:`contextvars` variable, so per-solve selection is thread- and
task-safe: the drivers wrap each run in :func:`use_backend`, and the fabric
node tasks re-establish the driver's choice inside worker processes.

:func:`use_backend` is also where the thread policy lives: inside it, every
OpenBLAS runtime loaded into the process runs on one thread
(:mod:`repro.kernels.blas`).  The system's parallelism is the fabric's
workers, agents and service threads, not BLAS threads inside a solve.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import warnings
from typing import Iterator, Optional

from . import blas
from .base import KernelBackend, SweepStats, select, selector_length
from .fused import FusedBackend
from .reference import NumpyBackend

__all__ = [
    "KernelBackend",
    "SweepStats",
    "KNOWN_KERNEL_BACKENDS",
    "DEFAULT_KERNEL_BACKEND",
    "KERNEL_BACKEND_ENV",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "active_backend",
    "active_backend_name",
    "use_backend",
    "select",
    "selector_length",
]

#: Every name ``SolverConfig.kernel_backend`` accepts.
KNOWN_KERNEL_BACKENDS: tuple[str, ...] = ("numpy", "fused")

DEFAULT_KERNEL_BACKEND = "fused"

#: Environment override, read at resolution time.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

_REGISTRY: dict[str, KernelBackend] = {
    "numpy": NumpyBackend(),
    "fused": FusedBackend(),
}

_ACTIVE: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_kernel_backend", default=None
)

_WARNED: set[str] = set()


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends, in registry order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name`` (raises ``KeyError`` if absent)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"kernel backend {name!r} is not available; "
            f"registered: {', '.join(available_backends())}"
        ) from None


def _warn_once(message: str) -> None:
    if message not in _WARNED:
        _WARNED.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve a backend request to the name of a registered backend.

    ``None`` defers to ``REPRO_KERNEL_BACKEND`` and then the default.
    Unknown names fall back to the default with a one-time warning.
    """
    requested = name or os.environ.get(KERNEL_BACKEND_ENV) or DEFAULT_KERNEL_BACKEND
    if requested not in KNOWN_KERNEL_BACKENDS:
        _warn_once(
            f"unknown kernel backend {requested!r}; "
            f"falling back to {DEFAULT_KERNEL_BACKEND!r}"
        )
        requested = DEFAULT_KERNEL_BACKEND
    return requested


def active_backend() -> KernelBackend:
    """The backend the current context runs on (resolving lazily)."""
    return _REGISTRY[resolve_backend_name(_ACTIVE.get())]


def active_backend_name() -> str:
    """Resolved name of the current context's backend."""
    return resolve_backend_name(_ACTIVE.get())


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[str]:
    """Pin the kernel backend for the dynamic extent of the ``with`` block.

    ``None`` pins whatever the environment/default resolution yields *now*,
    so nested code sees a stable choice for the whole solve.

    The block also runs inside :data:`repro.kernels.blas.one_thread`: while
    any thread of the process is in a ``use_backend`` block, every OpenBLAS
    runtime runs on one thread, and the caller's thread counts come back
    when the last block exits.  The setting is process-wide, so BLAS calls
    from the caller's other threads also run on one thread meanwhile.
    """
    resolved = resolve_backend_name(name)
    with blas.one_thread:
        token = _ACTIVE.set(resolved)
        try:
            yield resolved
        finally:
            _ACTIVE.reset(token)
