"""Outside-in tracing for the traced pass: spans around calls into repro's layers.

The traced pass swaps each layer's public entry points (class methods and
module functions, listed in :func:`targets`) for wrappers that record a span
and then call the original; :meth:`Instrumentation.remove` puts the originals
back.  Nothing under ``src/`` changes, and only the benchmark's own process
is traced: time spent inside pool workers and node agents is invisible, so
``fabric.run_nodes`` is the parent's wait for them.

A span records a name, start and end from ``time.perf_counter_ns``, its
parent span, the id of the operation (one solve or ticket) it belongs to,
and counts taken at the same boundary.  This is the shape an in-program
recorder would emit, so the metric names below can survive that switch.
Spans are kept in memory and written out as JSON when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import pickle
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional


class Span:
    __slots__ = ("id", "name", "parent", "op", "start_ns", "end_ns", "counts")

    def __init__(self, span_id: int, name: str, parent: Optional[int], op: Optional[int]):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start_ns = time.perf_counter_ns()
        self.end_ns = 0
        self.counts: Optional[dict] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "counts": self.counts,
        }


class Tracer:
    """In-memory span recorder; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[int] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(next(self._ids), name, parent.id if parent else None, op)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        span = self.begin(name, op)
        try:
            yield span
        finally:
            self.end(span)

    def new_op(self) -> int:
        """A fresh operation id (shared by every span of one solve or ticket)."""
        return next(self._ids)

    def as_json(self) -> list[dict]:
        return [span.as_dict() for span in sorted(self.spans, key=lambda s: s.start_ns)]


# ---------------------------------------------------------------------- #
# Wrapping the layers
# ---------------------------------------------------------------------- #

Counter = Callable[[tuple, dict, Any], dict]


def _wrap(tracer: Tracer, name: str, fn: Callable, counter: Optional[Counter]) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    return traced


def _subclasses(cls: type) -> list[type]:
    seen: dict[type, None] = {}
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop(0)
        if sub not in seen:
            seen[sub] = None
            todo.extend(sub.__subclasses__())
    return list(seen)


def _engine_counts(args: tuple, kwargs: dict, outcome: Any) -> dict:
    return {
        "iterations": outcome.iterations,
        "successful": outcome.successful_iterations,
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
    }


def _subset_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": len(args[1])}


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(name)


def _sweep_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    # KernelBackend.sweep(self, pack, encoded, sel, weights, need_total, log_weights, ...)
    from repro.kernels.base import selector_length

    pack = _arg(args, kwargs, 1, "pack")
    rows = selector_length(_arg(args, kwargs, 3, "sel"), pack.rows.shape[0])
    weighted = (
        _arg(args, kwargs, 4, "weights") is not None
        or _arg(args, kwargs, 6, "log_weights") is not None
    )
    # Computed, not measured: the float64 packed row (d coefficients, rhs,
    # limit) plus one float64 weight when the caller passed weights.
    row_bytes = 8 * (pack.rows.shape[1] + 2 + int(weighted))
    return {"rows": rows, "bytes": rows * row_bytes}


def _gumbel_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": int(args[1].size)}


def _dumps_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": len(result)}


def _loads_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": len(args[0])}


def _node_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"tasks": len(args[2])}


class _ShipCounter:
    """Bytes ``TcpTransport.init_shared`` pickles, sized once per shipped object."""

    def __init__(self) -> None:
        self._sizes: dict[int, tuple[Any, int]] = {}

    def __call__(self, args: tuple, kwargs: dict, result: Any) -> dict:
        value = args[3]
        entry = self._sizes.get(id(value))
        if entry is None or entry[0] is not value:
            entry = (value, len(pickle.dumps(value)))
            self._sizes[id(value)] = entry
        return {"ship_bytes": entry[1]}


FABRIC_METHODS = {
    "init_shared": None,
    "init_node": None,
    "run_nodes": _node_counts,
    "deliver": None,
    "release": None,
}


def targets() -> Iterable[tuple[Any, str, str, Optional[Counter]]]:
    """``(owner, attribute, span name, counter)`` for every traced entry point."""
    import repro.algorithms  # noqa: F401  (the drivers define their strategies)
    from repro import kernels
    from repro.cluster.transport import TcpTransport
    from repro.core.engine import ClarksonEngine, SamplingStrategy, WeightSubstrate
    from repro.core.lptype import LPTypeProblem
    from repro.fabric import shm, wirecodec
    from repro.fabric.transport import Transport

    yield ClarksonEngine, "run", "engine.run", _engine_counts
    for cls in _subclasses(SamplingStrategy):
        if "draw" in vars(cls):
            yield cls, "draw", "engine.draw", None
    for cls in _subclasses(WeightSubstrate):
        for method in ("measure", "boost"):
            if method in vars(cls):
                yield cls, method, f"engine.{method}", None
    for cls in _subclasses(LPTypeProblem):
        if "solve_subset" in vars(cls):
            yield cls, "solve_subset", "problems.solve_subset", _subset_counts
    backend = type(kernels.active_backend())
    yield backend, "sweep", "kernels.sweep", _sweep_counts
    yield backend, "gumbel_top_k", "kernels.gumbel", _gumbel_counts
    yield backend, "count_matrix", "kernels.count_matrix", None
    yield backend, "solve_many", "kernels.solve_many", None
    for cls in _subclasses(Transport):
        for method, counter in FABRIC_METHODS.items():
            if method in vars(cls):
                if cls is TcpTransport and method == "init_shared":
                    counter = _ShipCounter()
                yield cls, method, f"fabric.{method}", counter
    yield TcpTransport, "warm_up", "cluster.warm_up", None
    yield wirecodec, "dumps", "fabric.codec", _dumps_counts
    yield wirecodec, "loads", "fabric.codec", _loads_counts
    yield shm.SharedPackStore, "export", "fabric.shm_export", None


class Instrumentation:
    """Installs the wrappers of :func:`targets`; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self._patches = []
        for owner, attr, name, counter in targets():
            own = vars(owner).get(attr, _MISSING)
            if isinstance(own, (staticmethod, classmethod)):
                raise TypeError(f"cannot trace {owner.__name__}.{attr}: not a plain function")
            wrapper = _wrap(tracer, name, getattr(owner, attr), counter)
            self._patches.append((owner, attr, own, wrapper))
        self.installed = False

    def install(self) -> None:
        for owner, attr, _own, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def remove(self) -> None:
        if not self.installed:
            return
        for owner, attr, own, _wrapper in self._patches:
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self.installed = False


_MISSING = object()


# ---------------------------------------------------------------------- #
# From spans to per-layer metrics
# ---------------------------------------------------------------------- #

#: Per-layer metric -> (span name, what to take, scale).  ``self`` sums
#: self time (ns), ``calls`` counts outermost spans, ``count:<key>`` sums a
#: count of outermost spans; each sum is scaled, then divided by the ops.
SPAN_METRICS = {
    "engine.draw_ms": ("engine.draw", "self", 1e-6),
    "engine.measure_ms": ("engine.measure", "self", 1e-6),
    "engine.boost_ms": ("engine.boost", "self", 1e-6),
    "engine.iterations": ("engine.run", "count:iterations", 1.0),
    "problems.solve_subset_ms": ("problems.solve_subset", "self", 1e-6),
    "problems.solve_subset_calls": ("problems.solve_subset", "calls", 1.0),
    "problems.subset_rows": ("problems.solve_subset", "count:rows", 1.0),
    "kernels.sweep_ms": ("kernels.sweep", "self", 1e-6),
    "kernels.sweep_mrows": ("kernels.sweep", "count:rows", 1e-6),
    "kernels.sweep_gb": ("kernels.sweep", "count:bytes", 1e-9),
    "kernels.gumbel_ms": ("kernels.gumbel", "self", 1e-6),
    "kernels.gumbel_mrows": ("kernels.gumbel", "count:rows", 1e-6),
    "kernels.count_matrix_ms": ("kernels.count_matrix", "self", 1e-6),
    "kernels.solve_many_ms": ("kernels.solve_many", "self", 1e-6),
    "fabric.init_node_ms": ("fabric.init_node", "self", 1e-6),
    "fabric.init_node_calls": ("fabric.init_node", "calls", 1.0),
    "fabric.init_shared_ms": ("fabric.init_shared", "self", 1e-6),
    "fabric.run_nodes_ms": ("fabric.run_nodes", "self", 1e-6),
    "fabric.run_nodes_calls": ("fabric.run_nodes", "calls", 1.0),
    "fabric.node_tasks": ("fabric.run_nodes", "count:tasks", 1.0),
    "fabric.deliver_ms": ("fabric.deliver", "self", 1e-6),
    "fabric.deliver_calls": ("fabric.deliver", "calls", 1.0),
    "fabric.codec_ms": ("fabric.codec", "self", 1e-6),
    "fabric.codec_mb": ("fabric.codec", "count:bytes", 1e-6),
    "fabric.shm_export_ms": ("fabric.shm_export", "self", 1e-6),
    "fabric.release_ms": ("fabric.release", "self", 1e-6),
    "server.post_ms": ("server.post", "self", 1e-6),
    "server.events_ms": ("server.events", "self", 1e-6),
    "server.result_get_ms": ("server.result_get", "self", 1e-6),
}

#: Per-layer metric -> (count the op span carries, scale), averaged over ops.
OP_METRICS = {
    "fabric.max_load_kbits": ("max_load_bits", 1e-3),
    "fabric.max_message_kbits": ("max_message_bits", 1e-3),
    "server.queue_wait_ms": ("wait_s", 1e3),
    "server.solve_ms": ("solve_s", 1e3),
    "server.request_kb": ("request_bytes", 1e-3),
    "server.result_kb": ("result_bytes", 1e-3),
    "server.sse_events": ("sse_events", 1.0),
    "server.refused": ("refused", 1.0),
}


class SpanIndex:
    """Self times, outermost-of-name flags and per-op grouping of a span list."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        by_id = {span.id: span for span in spans}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)
        self.self_ns = {
            span.id: span.duration_ns
            - sum(child.duration_ns for child in self.children.get(span.id, ()))
            for span in spans
        }
        self.outermost = {}
        for span in spans:
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != span.name:
                parent = by_id.get(parent.parent)
            self.outermost[span.id] = parent is None

    def descendants(self, span: Span) -> Iterator[Span]:
        todo = list(self.children.get(span.id, ()))
        while todo:
            child = todo.pop()
            yield child
            todo.extend(self.children.get(child.id, ()))


def op_metrics(spans: list[Span], ops: list[Span]) -> dict[str, float]:
    """The span-derived per-layer metrics, per traced operation."""
    index = SpanIndex(spans)
    op_ids = {op.op for op in ops}
    count = max(1, len(ops))
    inside = [s for s in spans if s.op in op_ids and s.name != "op"]
    totals: dict[str, float] = {}
    for metric, (name, what, scale) in SPAN_METRICS.items():
        value = 0.0
        for span in inside:
            if span.name != name:
                continue
            if what == "self":
                value += index.self_ns[span.id]
            elif index.outermost[span.id]:
                value += 1 if what == "calls" else (span.counts or {}).get(what[6:], 0)
        totals[metric] = value * scale / count
    for metric, (key, scale) in OP_METRICS.items():
        totals[metric] = math.fsum((op.counts or {}).get(key, 0) for op in ops) * scale / count
    engine = [s for s in inside if s.name == "engine.run" and s.counts]
    iterations = sum(s.counts["iterations"] for s in engine)
    lookups = sum(s.counts["cache_hits"] + s.counts["cache_misses"] for s in engine)
    totals["engine.success_ratio"] = (
        sum(s.counts["successful"] for s in engine) / iterations if iterations else 0.0
    )
    totals["engine.cache_hit_ratio"] = (
        sum(s.counts["cache_hits"] for s in engine) / lookups if lookups else 0.0
    )
    ships = [s for s in inside if s.counts and "ship_bytes" in s.counts]
    totals["cluster.ship_mb"] = (
        math.fsum(s.counts["ship_bytes"] for s in ships) / len(ships) / 1e6 if ships else 0.0
    )
    # The driver's own time outside every traced layer: the op's self time.
    totals["algorithms.outside_loop_ms"] = (
        math.fsum(index.self_ns[op.id] for op in ops) / 1e6 / count
    )
    covered = math.fsum(
        child.duration_ns for op in ops for child in index.children.get(op.id, ())
    )
    total = math.fsum(op.duration_ns for op in ops)
    totals["trace.coverage"] = covered / total if total else 0.0
    return totals


def setup_metrics(spans: list[Span]) -> dict[str, list[float]]:
    """Seconds of ``api.open``, ``api.warmup`` and ``cluster.warm_up`` per set-up."""
    index = SpanIndex(spans)
    per_setup: dict[str, list[float]] = {
        "api.open_s": [],
        "api.warmup_s": [],
        "cluster.warm_up_s": [],
    }
    for setup in (s for s in spans if s.name == "setup"):
        found = {"api.open": 0, "api.warmup": 0, "cluster.warm_up": 0}
        for span in index.descendants(setup):
            if span.name in found and index.outermost[span.id]:
                found[span.name] += span.duration_ns
        per_setup["api.open_s"].append(found["api.open"] / 1e9)
        per_setup["api.warmup_s"].append(found["api.warmup"] / 1e9)
        per_setup["cluster.warm_up_s"].append(found["cluster.warm_up"] / 1e9)
    return per_setup
