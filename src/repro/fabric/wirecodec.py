"""The process transports' wire frames: marked pickles, and stream framing.

Task arguments, task results, node-init states and the cluster protocol's
messages travel as ``MAGIC + pickle.dumps(obj)``.  Pickle transcribes floats
and arrays from their raw buffers, so a decoded value is byte-for-byte the
encoded one, with its NumPy scalar type, dtype, memory order and read-only
flag.  A :class:`~repro.fabric.payload.Payload` pickles as its canonical
``to_bytes()`` form.  The ledger charges ``Payload.measured_bits``, never
these frames, so how they are serialised cannot move a bit.

``dumps`` prefixes a magic marker, and ``loads`` refuses data without it
with ``ValueError``: every producer (journaled inits and task arguments,
worker replies, cluster frames) writes ``dumps`` frames, so unmarked bytes
come from a foreign, corrupt or older peer and never reach the unpickler.
A marked frame is a pickle, so ``loads`` must only read frames from a
trusted peer, never an HTTP body.

Stream framing
--------------
Pipes (``multiprocessing.Connection``) preserve message boundaries, but raw
byte streams — TCP sockets above all — deliver *fragments*: one ``recv`` may
return half a frame, and a peer may die mid-frame.  :func:`read_exactly`,
:func:`frame`, and :func:`read_frame` give every stream consumer (the
cluster's socket protocol, file-backed journals) one explicit length-prefixed
framing discipline: a frame is a 4-byte big-endian length followed by exactly
that many payload bytes.  A stream that ends cleanly *between* frames raises
``EOFError``; one that ends *inside* a frame (or a marked frame whose pickle
ends early) raises :class:`TruncatedFrameError`, never a silently-short value.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Callable

__all__ = [
    "dumps",
    "loads",
    "MAGIC",
    "TruncatedFrameError",
    "read_exactly",
    "frame",
    "read_frame",
    "MAX_FRAME_BYTES",
]

#: Frame marker: :func:`loads` refuses anything not starting with this.
#: (``\x93`` differs from pickle's ``PROTO`` opcode ``\x80``, so a raw
#: pickle is never taken for a frame; ``RW1`` frames, the older hand-written
#: format, are refused at the first frame.)
MAGIC = b"\x93RW2"

#: Hard ceiling on one stream frame (a corrupt length prefix must not make a
#: reader try to buffer gigabytes before failing).
MAX_FRAME_BYTES = 1 << 31


class TruncatedFrameError(ValueError):
    """A wire frame ended (or claimed more bytes) than the stream delivered."""


def dumps(obj: Any) -> bytes:
    """Encode ``obj`` into a marked wire frame."""
    return MAGIC + pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def loads(data: bytes) -> Any:
    """Decode a :func:`dumps` frame.

    Data without the :data:`MAGIC` marker raises ``ValueError``: unmarked
    bytes are a foreign or corrupt peer, never a pickle to run.  A frame
    whose pickle ends early raises :class:`TruncatedFrameError`, never a
    silently-short value: socket streams deliver fragments, and a reader
    that handed a partial buffer to ``loads`` must hear about it.
    """
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a wirecodec frame: missing the {MAGIC!r} marker")
    try:
        return pickle.loads(memoryview(data)[len(MAGIC) :])
    except (EOFError, pickle.UnpicklingError) as exc:
        # Pickle reports a body that ends early as ``EOFError`` or as
        # ``UnpicklingError("pickle data was truncated")``.
        if isinstance(exc, pickle.UnpicklingError) and "truncated" not in str(exc):
            raise
        raise TruncatedFrameError(f"truncated wire frame: {exc}") from exc


# --------------------------------------------------------------------- #
# Stream framing: explicit partial-read handling for sockets and files
# --------------------------------------------------------------------- #

_FRAME_HEADER = struct.Struct("!I")  # big-endian frame length


def read_exactly(recv: Callable[[int], bytes], count: int) -> bytes:
    """Read exactly ``count`` bytes from a fragmenting stream.

    ``recv`` is any ``recv(n) -> bytes`` / ``read(n) -> bytes`` callable
    (``socket.recv``, ``BufferedReader.read``): it may return *fewer* bytes
    than asked, and returns ``b""`` at end-of-stream.  A stream that ends at
    byte 0 raises ``EOFError`` (clean close between frames); one that ends
    after delivering a fragment raises :class:`TruncatedFrameError`.
    """
    if count == 0:
        return b""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = recv(remaining)
        if not chunk:
            if remaining == count:
                raise EOFError("stream closed")
            raise TruncatedFrameError(
                f"stream ended mid-frame: expected {count} byte(s), "
                f"got {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def frame(payload: bytes) -> bytes:
    """Length-prefix one payload: 4-byte big-endian length + the bytes.

    The caller writes the returned buffer with an all-or-nothing primitive
    (``socket.sendall``, ``BufferedWriter.write``) — short *writes* are the
    sender's half of the framing contract.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _FRAME_HEADER.pack(len(payload)) + payload


def read_frame(recv: Callable[[int], bytes]) -> bytes:
    """Read one :func:`frame`-framed payload from a fragmenting stream.

    Raises ``EOFError`` on a clean close between frames,
    :class:`TruncatedFrameError` on a mid-frame close, and ``ValueError`` on
    a length prefix beyond :data:`MAX_FRAME_BYTES` (corrupt stream).
    """
    header = read_exactly(recv, _FRAME_HEADER.size)
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame header declares {length} bytes, beyond MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); stream is corrupt or desynchronised"
        )
    try:
        return read_exactly(recv, length)
    except EOFError as exc:
        # The header arrived but the payload did not even start: the peer
        # died between the two, which is still a truncated frame.
        raise TruncatedFrameError(
            f"stream ended after frame header: expected {length} payload "
            "byte(s), got 0"
        ) from exc
