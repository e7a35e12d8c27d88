"""The machine around a run: environment block, drift probe, memory and leaks."""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import sys
import time

import numpy as np

#: Sizes of the fixed machine probe (~0.35 s each part on a 2-vCPU KVM guest).
PROBE_ROWS = 500_000
PROBE_SWEEPS = 150
PROBE_LOOP = 3_000_000


def probe() -> dict:
    """Time a fixed NumPy sweep and a fixed pure-Python loop.

    Stored beside the metrics, never combined with them: when two runs
    differ, a reader can tell machine drift from a change in the code.
    """
    rng = np.random.default_rng(20261017)
    rows = rng.normal(size=(PROBE_ROWS, 8))
    vec = rng.normal(size=8)
    start = time.perf_counter()
    hits = 0
    for _ in range(PROBE_SWEEPS):
        hits += int(np.count_nonzero(rows @ vec > 0.5))
    numpy_s = time.perf_counter() - start
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc = (acc + i * i) % 1_000_003
    python_s = time.perf_counter() - start
    return {"numpy_s": numpy_s, "python_s": python_s, "checksum": hits + acc}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read()
    except OSError:
        return ""


def _cpuinfo() -> dict:
    model, flags = "", ""
    for line in _read("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and not model:
            model = value.strip()
        elif key.strip() == "flags" and not flags:
            flags = value
    return {
        "cpu_model": model or platform.processor(),
        "hypervisor": "hypervisor" in flags.split(),
        "clocksource": _read(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource"
        ).strip(),
    }


def _blas() -> dict:
    """BLAS library, its configuration and its thread count as the process runs it."""
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    libraries = sorted(
        {
            line.split()[-1]
            for line in _read("/proc/self/maps").splitlines()
            if "blas" in line.lower() and line.split()[-1].startswith("/")
        }
    )
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                if "threads" in info:
                    info["library"] = path
                    return info
    return info


def environment() -> dict:
    """What the run ran on; recorded with every run."""
    import multiprocessing

    import scipy

    import repro
    from repro import kernels
    from repro.api.config import TransportConfig
    from repro.fabric.transport import ProcessPoolTransport

    # Constructed, never started: the flag is the one a session's pool gets,
    # after the silent fallback to the pickle wire where shm does not work.
    pool = ProcessPoolTransport(max_workers=1)
    shared_memory = pool.shared_memory
    pool.close()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **_cpuinfo(),
        "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro": os.path.dirname(repro.__file__),
        "transport_start_method": TransportConfig().start_method,
        "multiprocessing_start_method": multiprocessing.get_start_method(allow_none=True),
        "kernel_backend": kernels.active_backend_name(),
        "shared_memory": shared_memory,
        "env": {
            key: os.environ[key]
            for key in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
                "REPRO_KERNEL_BACKEND",
                "REPRO_SHM_MIN_BYTES",
            )
            if key in os.environ
        },
    }


# ---------------------------------------------------------------------- #
# Processes: peak memory and leaks
# ---------------------------------------------------------------------- #


def _stat(pid: int) -> tuple[int, str] | None:
    """(parent pid, state) of ``pid``, or ``None`` once it is gone."""
    raw = _read(f"/proc/{pid}/stat")
    if not raw:
        return None
    fields = raw[raw.rfind(")") + 2 :].split()
    return int(fields[1]), fields[0]


def cmdline(pid: int) -> str:
    return _read(f"/proc/{pid}/cmdline").replace("\0", " ").strip()


def descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and stat[1] != "Z":
                parents.setdefault(stat[0], []).append(int(entry))
    found, todo = [], [root]
    while todo:
        for child in parents.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return sorted(found)


def helper(pid: int) -> bool:
    """Whether ``pid`` is multiprocessing's resource tracker (not under test)."""
    return "resource_tracker" in cmdline(pid)


def workers() -> list[int]:
    """Descendant processes doing the program's work (pool workers, agents)."""
    return [pid for pid in descendants() if not helper(pid)]


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB (10^6 bytes)."""
    for line in _read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    return 0.0


def own_segments() -> list[str]:
    """``shm.leaked_segments()`` narrowed to the segments this process made.

    Segment names carry the exporting pid, and only this process exports
    (workers and agents attach), so other programs' segments are left alone.
    """
    from repro.fabric import shm

    mine = f"{shm.SEGMENT_PREFIX}{os.getpid()}_"
    return [name for name in shm.leaked_segments() if name.startswith(mine)]


def leaks() -> list[str]:
    """Processes and shared-memory segments still alive after teardown."""
    found = [f"process {pid}: {cmdline(pid)}" for pid in workers()]
    found += [f"shm segment {name}" for name in own_segments()]
    return found


def reap() -> None:
    """Kill what :func:`leaks` found, so a leftover cannot slow the next run."""
    for pid in workers():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # a grandchild: its own parent reaps it
    for name in own_segments():
        try:
            os.unlink(f"/dev/shm/{name.lstrip('/')}")
        except OSError:
            pass


def stop_helpers() -> None:
    """Stop multiprocessing's resource tracker and wait for it, before exit."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
