"""One BLAS thread inside every solve.

The paper's algorithms put their parallelism in the model: sites, machines,
and here pool workers, node agents and service threads.  Inside a solve,
each thread does one ``O(n)`` violation sweep and a small subset solve per
Clarkson iteration.  A multi-threaded BLAS underneath competes with the
sweep loop and with SciPy's SLSQP for the same cores, and makes some results
depend on the BLAS thread count (the MEB x MPC radius differs in its last
bits between one and two threads).

:data:`one_thread` is a thread-safe, reference-counted scope.  While any
thread of the process is inside it, every OpenBLAS runtime loaded into the
process runs on one thread; when the last one leaves, on return or on
exception, each runtime gets back the thread count it had when the first
one entered.  :func:`repro.kernels.use_backend` enters it, so every driver
run and every fabric node task (in-process, in a pool worker or on a TCP
agent) runs its BLAS calls on one thread.  There is no switch for it: the
fabric is the system's parallelism.

Runtimes are found once, on first entry, among the shared objects loaded
into the process (``dl_iterate_phdr``) whose file name contains
``openblas``, by the thread-count symbols they export:

* NumPy's wheel runtime: ``scipy_openblas_{get,set}_num_threads64_``;
* SciPy's wheel runtime: ``scipy_openblas_{get,set}_num_threads``;
* a system OpenBLAS: ``openblas_{get,set}_num_threads``.

``import repro`` loads SciPy's solvers, so both wheel runtimes are loaded
before the first solve.  With any other BLAS (MKL, BLIS, Accelerate), or
on a platform without ``dl_iterate_phdr`` (macOS, Windows), nothing is
found and the scope does nothing.  Discovery and every thread-count call
keep the GIL: each release would let a busy Python thread hold a solve
up for a whole switch interval (5 ms), or longer behind a C call such as
``json.loads``.

The setting is process-wide.  While a solve runs, BLAS calls made by the
caller's other threads also run on one thread.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "BlasRuntime",
    "OneThreadScope",
    "find_runtimes",
    "loaded_libraries",
    "one_thread",
    "thread_counts",
]

#: ``(getter, setter)`` symbol pairs, tried in order on each library.
_SYMBOLS: tuple[tuple[str, str], ...] = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class BlasRuntime:
    """One loaded BLAS library and its thread-count controls."""

    path: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


class _PhdrInfo(ctypes.Structure):
    # The leading fields of glibc's and musl's ``struct dl_phdr_info``.
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


_VISIT = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def loaded_libraries() -> list[str]:
    """Paths of the shared objects loaded into this process.

    Empty where the C library has no ``dl_iterate_phdr``.
    """
    try:
        iterate = ctypes.PyDLL(None).dl_iterate_phdr
    except AttributeError:
        return []
    iterate.argtypes = [_VISIT, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    paths: list[str] = []

    def visit(info, size, data) -> int:
        if info.contents.name:
            paths.append(os.fsdecode(info.contents.name))
        return 0

    iterate(_VISIT(visit), None)
    return paths


def _runtime(path: str) -> Optional[BlasRuntime]:
    """The thread controls of the already-loaded library at ``path``."""
    try:
        # RTLD_NOLOAD: a handle to the loaded copy, never a second load.
        # PyDLL: the calls are sub-microsecond and keep the GIL.
        lib = ctypes.PyDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
    except OSError:
        return None
    for getter_name, setter_name in _SYMBOLS:
        getter = getattr(lib, getter_name, None)
        setter = getattr(lib, setter_name, None)
        if getter is not None and setter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return BlasRuntime(path, getter, setter)
    return None


def find_runtimes(paths: Optional[Iterable[str]] = None) -> tuple[BlasRuntime, ...]:
    """The OpenBLAS runtimes among ``paths`` (default: :func:`loaded_libraries`)."""
    candidates = sorted(
        {
            path
            for path in (loaded_libraries() if paths is None else paths)
            if "openblas" in os.path.basename(path).lower()
        }
    )
    return tuple(rt for rt in map(_runtime, candidates) if rt is not None)


class OneThreadScope:
    """Reference-counted scope that runs a set of BLAS runtimes on one thread.

    Re-entrant and shared by threads: the first entry saves each runtime's
    thread count and sets it to one, the last exit restores the saved
    counts.  ``find`` is called once, on first entry.
    """

    def __init__(self, find: Callable[[], Sequence[BlasRuntime]] = find_runtimes):
        self._find = find
        self._runtimes: Optional[tuple[BlasRuntime, ...]] = None
        self._saved: tuple[int, ...] = ()
        self._depth = 0
        self._lock = threading.Lock()

    def runtimes(self) -> tuple[BlasRuntime, ...]:
        """The runtimes this scope controls, found on first use."""
        with self._lock:
            return self._found()

    def _found(self) -> tuple[BlasRuntime, ...]:
        if self._runtimes is None:
            self._runtimes = tuple(self._find())
        return self._runtimes

    def __enter__(self) -> "OneThreadScope":
        with self._lock:
            if self._depth == 0:
                runtimes = self._found()
                self._saved = tuple(rt.get_num_threads() for rt in runtimes)
                for runtime in runtimes:
                    runtime.set_num_threads(1)
            self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for runtime, threads in zip(self._found(), self._saved):
                    runtime.set_num_threads(threads)

    def _after_fork(self) -> None:
        # A forked child (the ``fork`` start method of the process pool) runs
        # no solve of its parent's, and the parent's lock may have been held
        # by a thread the child does not have.
        self._lock = threading.Lock()
        self._depth = 0


#: The process's scope, entered by :func:`repro.kernels.use_backend`.
one_thread = OneThreadScope()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=one_thread._after_fork)


def thread_counts() -> dict[str, int]:
    """Current thread count of each runtime :data:`one_thread` controls, by path."""
    return {rt.path: rt.get_num_threads() for rt in one_thread.runtimes()}
