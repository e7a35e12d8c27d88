"""Zero-copy shipping of large constraint arrays over POSIX shared memory.

The process transports historically shipped the problem instance by pickling
it once **per worker**: at the xlarge tier (``n = 10^7``) that is hundreds of
megabytes serialized, piped, and privately copied ``max_workers`` times.
This module replaces the copies with one shared segment:

* :class:`SharedPackStore` (one per process, via :func:`store`) exports an
  object's large contiguous arrays into a single
  :class:`multiprocessing.shared_memory.SharedMemory` segment and returns a
  tiny picklable :class:`ShippedObject` handle — the object's pickle with
  every qualifying array replaced by a ``(segment, slot)`` reference.
* Unpickling a :class:`ShippedObject` (in a worker, or in the parent's
  degraded in-process fallback) maps the segment and reconstructs
  **read-only NumPy views** over the shared pages: every worker sees the
  same physical memory, and per-worker RSS stops scaling with the problem.
* Each segment has one owner token, named at :meth:`SharedPackStore.export`
  and unlinked at :meth:`SharedPackStore.release_owner`.  The owner is the
  transports' kept-value table (:mod:`repro.fabric.transport`), which ends
  a segment with the value that shipped it; an ``atexit`` sweep unlinks
  anything that survives, so a crashed worker can never leak a segment
  (workers only ever *attach*; the creating process owns the name).

Python 3.11's ``resource_tracker`` registers every segment it sees — in the
creator *and* in every attaching process — and unlinks them when the first
of those processes exits (bpo-38119).  Segments are therefore opened and
unlinked with the tracker silenced (:func:`_tracker_silenced`); lifetime is
this module's job alone.
"""

from __future__ import annotations

import atexit
import io
import itertools
import os
import pickle
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

import numpy as np

__all__ = [
    "SharedPackStore",
    "ShippedObject",
    "store",
    "shared_memory_supported",
    "leaked_segments",
]

#: Prefix of every segment this module creates (``/dev/shm/<prefix>...``).
SEGMENT_PREFIX = "repro_shm_"

#: Arrays below this many bytes ride the ordinary pickle (framing a shared
#: segment around a few hundred bytes costs more than it saves).
MIN_SHARED_BYTES = 4096

#: Per-array alignment inside a segment (cache-line friendly, SIMD safe).
_ALIGN = 64

_SEGMENT_COUNTER = itertools.count()


_TRACKER_LOCK = threading.Lock()


@contextmanager
def _tracker_silenced() -> Iterator[None]:
    """No-op the resource tracker for segments opened/unlinked in the block.

    Python 3.11 registers a segment in *every* process that opens it and the
    tracker's cache is a set, so balanced create/attach/unlink sequences
    across parent + workers still produce spurious unregister ``KeyError``
    tracebacks — and, worse, the tracker unlinks still-live segments when
    the first registered process exits (bpo-38119).  Lifetime is this
    module's job, so our own segments are simply never told to the tracker.
    """
    try:  # pragma: no cover - tracker internals vary across minor versions
        from multiprocessing import resource_tracker
    except Exception:
        yield
        return
    with _TRACKER_LOCK:
        original_register = resource_tracker.register
        original_unregister = resource_tracker.unregister

        def register(name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original_register(name, rtype)

        def unregister(name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original_unregister(name, rtype)

        resource_tracker.register = register
        resource_tracker.unregister = unregister
        try:
            yield
        finally:
            resource_tracker.register = original_register
            resource_tracker.unregister = original_unregister


def _open_segment(name: str, create: bool, size: int = 0):
    from multiprocessing import shared_memory

    with _tracker_silenced():
        if create:
            return shared_memory.SharedMemory(name=name, create=True, size=max(1, size))
        return shared_memory.SharedMemory(name=name)


def _unlink_segment(segment) -> None:
    """Close + unlink one segment, swallowing already-gone/still-viewed races."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a local view still pins the map
        pass
    try:
        with _tracker_silenced():
            segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already swept
        pass


_SUPPORTED: Optional[bool] = None


def shared_memory_supported() -> bool:
    """Whether this platform can create, reattach, and unlink a segment."""
    global _SUPPORTED
    if _SUPPORTED is None:
        probe_name = f"{SEGMENT_PREFIX}probe_{os.getpid()}"
        try:
            seg = _open_segment(probe_name, create=True, size=16)
            seg.buf[:4] = b"ok!\x00"
            peer = _open_segment(probe_name, create=False)
            ok = bytes(peer.buf[:4]) == b"ok!\x00"
            peer.close()
            _unlink_segment(seg)
            _SUPPORTED = bool(ok)
        except Exception:
            _SUPPORTED = False
    return _SUPPORTED


def _qualifies(value: Any) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.dtype.kind in "fiub"
        and value.flags["C_CONTIGUOUS"]
        and value.nbytes >= MIN_SHARED_BYTES
    )


# --------------------------------------------------------------------- #
# Export: pickle with large arrays spilled into one shared segment
# --------------------------------------------------------------------- #


class _CollectingPickler(pickle.Pickler):
    """Pickles an object while diverting qualifying arrays to segment slots.

    The same array *object* appearing several times in the graph (e.g. an
    ``LinearProgram.a`` that is also its pack's ``rows``) maps to one slot,
    and the attach side returns one shared view for both references — the
    aliasing survives the wire.
    """

    def __init__(self, buffer: io.BytesIO) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[np.ndarray] = []
        self._slots: dict[int, int] = {}

    def persistent_id(self, obj: Any) -> Any:
        if not _qualifies(obj):
            return None
        slot = self._slots.get(id(obj))
        if slot is None:
            slot = len(self.arrays)
            self._slots[id(obj)] = slot
            self.arrays.append(obj)
        return ("repro-shm", slot)


class _AttachUnpickler(pickle.Unpickler):
    def __init__(self, buffer: io.BytesIO, attachment: "_Attachment") -> None:
        super().__init__(buffer)
        self._attachment = attachment

    def persistent_load(self, pid: Any) -> Any:
        tag, slot = pid
        if tag != "repro-shm":  # pragma: no cover - foreign persistent id
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return self._attachment.view(int(slot))


class _Attachment:
    """One mapped segment plus its reconstructed (cached) read-only views."""

    __slots__ = ("name", "segment", "directory", "refs", "_views")

    def __init__(self, name: str, directory: tuple) -> None:
        self.name = name
        self.segment = _open_segment(name, create=False)
        self.directory = directory
        self.refs = 0
        self._views: dict[int, np.ndarray] = {}

    def view(self, slot: int) -> np.ndarray:
        cached = self._views.get(slot)
        if cached is None:
            offset, dtype_str, shape = self.directory[slot]
            cached = np.ndarray(
                shape, dtype=np.dtype(dtype_str), buffer=self.segment.buf, offset=offset
            )
            cached.flags.writeable = False
            self._views[slot] = cached
        return cached

    def close(self) -> bool:
        """Drop the mapping; ``False`` when live views still pin the buffer."""
        self._views.clear()
        try:
            self.segment.close()
        except BufferError:
            return False
        return True


#: Segments this process has *attached* (worker side, or the parent's
#: degraded fallback), keyed by name.  Refcounts are per kept value.
_ATTACHMENTS: dict[str, _Attachment] = {}
_DEFERRED_CLOSES: set[str] = set()
_ATTACH_LOCK = threading.Lock()
_TRACK_TARGETS: list[set[str]] = []


def _attach_shipped(name: Optional[str], directory: tuple, payload: bytes) -> Any:
    """Reconstruct a shipped object (this is ``ShippedObject.__reduce__``)."""
    if name is None:
        return pickle.loads(payload)
    with _ATTACH_LOCK:
        attachment = _ATTACHMENTS.get(name)
        if attachment is None:
            attachment = _Attachment(name, directory)
            _ATTACHMENTS[name] = attachment
        for target in _TRACK_TARGETS:
            target.add(name)
    return _AttachUnpickler(io.BytesIO(payload), attachment).load()


@contextmanager
def track_attachments() -> Iterator[set[str]]:
    """Collect the names of every segment attached inside the block."""
    names: set[str] = set()
    with _ATTACH_LOCK:
        _TRACK_TARGETS.append(names)
    try:
        yield names
    finally:
        with _ATTACH_LOCK:
            _TRACK_TARGETS.remove(names)


def retain_attachments(names: set[str]) -> None:
    """Bump the attach refcount (one kept value now depends on these maps)."""
    with _ATTACH_LOCK:
        for name in names:
            attachment = _ATTACHMENTS.get(name)
            if attachment is not None:
                attachment.refs += 1


def release_attachments(names: set[str]) -> None:
    """Drop one kept value's refs; unmap segments nobody references anymore."""
    with _ATTACH_LOCK:
        for name in names:
            attachment = _ATTACHMENTS.get(name)
            if attachment is None:
                continue
            attachment.refs -= 1
            if attachment.refs <= 0:
                del _ATTACHMENTS[name]
                if not attachment.close():
                    # Live views outside the state dict still pin the buffer;
                    # the mapping is freed when they are collected (the name
                    # itself is the creator's to unlink, so nothing leaks).
                    _DEFERRED_CLOSES.add(name)


class ShippedObject:
    """A picklable zero-copy handle: tiny payload + shared-segment reference.

    Pickling a :class:`ShippedObject` writes only the payload bytes and the
    segment name — a transport's journal therefore records a *reference*
    to the shared pages, never a copy.  Unpickling (anywhere in the same
    machine, while the creator keeps the segment alive) re-maps the segment
    and rebuilds the object with read-only views.
    """

    __slots__ = ("segment_name", "directory", "payload", "nbytes")

    def __init__(
        self,
        segment_name: Optional[str],
        directory: tuple,
        payload: bytes,
        nbytes: int = 0,
    ) -> None:
        self.segment_name = segment_name
        self.directory = directory
        self.payload = payload
        self.nbytes = nbytes

    def __reduce__(self):
        return (_attach_shipped, (self.segment_name, self.directory, self.payload))

    def materialize(self) -> Any:
        """The reconstructed object (attaching in *this* process)."""
        return _attach_shipped(self.segment_name, self.directory, self.payload)


class SharedPackStore:
    """Creator-side table of exported segments (one per process).

    ``export(value, owner)`` spills ``value``'s large arrays into one fresh
    segment owned by ``owner`` and returns the :class:`ShippedObject`
    handle; ``release_owner(owner)`` unlinks every segment ``owner`` owns.
    The store does not decide when a segment ends: its owner does (the
    transports' kept-value table, which gives each segment one owner, the
    reference name of the value that shipped it).  All methods are
    thread-safe.
    """

    def __init__(self) -> None:
        # Segment name -> (owner, segment).
        self._exports: dict[str, tuple[str, Any]] = {}
        self._lock = threading.Lock()

    def export(self, value: Any, owner: str) -> Any:
        """A :class:`ShippedObject` for ``value`` (or ``value`` unchanged).

        Objects without a single qualifying array are returned as-is: no
        empty segments, and the caller's ordinary pickle path applies.
        """
        prepare = getattr(value, "prepare_for_export", None)
        if prepare is not None:
            # Materialise derived constraint-plane arrays (the pack, above
            # all) *before* pickling, so workers map them instead of each
            # rebuilding a private copy.
            prepare()
        buffer = io.BytesIO()
        pickler = _CollectingPickler(buffer)
        pickler.dump(value)
        if not pickler.arrays:
            return value
        offsets = []
        total = 0
        for arr in pickler.arrays:
            total = (total + _ALIGN - 1) // _ALIGN * _ALIGN
            offsets.append(total)
            total += arr.nbytes
        segment = self._create_segment(total)
        directory = []
        for arr, offset in zip(pickler.arrays, offsets):
            dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf, offset=offset)
            dest[...] = arr
            del dest
            directory.append((offset, arr.dtype.str, arr.shape))
        with self._lock:
            self._exports[segment.name] = (owner, segment)
        return ShippedObject(segment.name, tuple(directory), buffer.getvalue(), nbytes=total)

    def _create_segment(self, size: int):
        while True:
            name = f"{SEGMENT_PREFIX}{os.getpid()}_{next(_SEGMENT_COUNTER)}"
            try:
                return _open_segment(name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - pid reuse
                continue

    def release_owner(self, owner: str) -> None:
        """Unlink every segment ``owner`` owns (a no-op when it owns none)."""
        with self._lock:
            names = [name for name, (held_by, _) in self._exports.items() if held_by == owner]
            doomed = [self._exports.pop(name)[1] for name in names]
        for segment in doomed:
            _unlink_segment(segment)

    def unlink_all(self) -> None:
        """Unlink every export regardless of owners (the ``atexit`` sweep)."""
        with self._lock:
            doomed = [segment for _, segment in self._exports.values()]
            self._exports.clear()
        for segment in doomed:
            _unlink_segment(segment)

    def segment_names(self) -> list[str]:
        with self._lock:
            return sorted(self._exports)


_STORE = SharedPackStore()


def store() -> SharedPackStore:
    """The process-wide :class:`SharedPackStore`."""
    return _STORE


# --------------------------------------------------------------------- #
# Leak surface
# --------------------------------------------------------------------- #


def leaked_segments() -> list[str]:
    """``repro_shm_*`` names still present on the system (tests gate on []).

    Reads ``/dev/shm`` where it exists (Linux); elsewhere falls back to this
    process's own live-export registry.
    """
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        try:
            return sorted(
                entry
                for entry in os.listdir(shm_dir)
                if entry.startswith(SEGMENT_PREFIX)
            )
        except OSError:  # pragma: no cover - permission oddities
            pass
    return _STORE.segment_names()


@atexit.register
def _sweep() -> None:  # pragma: no cover - interpreter shutdown
    _STORE.unlink_all()
    with _ATTACH_LOCK:
        attachments = list(_ATTACHMENTS.values())
        _ATTACHMENTS.clear()
        _DEFERRED_CLOSES.clear()
    for attachment in attachments:
        attachment.close()
