"""Typed, serializable message payloads with measured bit accounting.

Every message that crosses a fabric topology is one of the payload types
below.  A payload knows how to serialize itself into a canonical wire format
(:meth:`Payload.to_bytes` / :func:`decode_payload`) and its communication
cost is **computed from that serialized form** — the coefficient and counter
counts charged to the ledger are exactly the numbers written to the wire,
so a caller can neither under- nor over-declare what a message costs.

Wire format (little-endian): a one-byte payload kind, then each array field
as ``(dtype code: 1 byte, element count: uint32, raw bytes)``.  The format
is self-describing enough for :func:`decode_payload` to reconstruct the
payload in another process; framing bytes (kind, dtype codes, lengths) are
protocol overhead and are charged zero bits, exactly as the paper's
accounting charges only the transmitted numbers.

The split between *coefficients* (real numbers, ``bits_per_coefficient``)
and *counters* (small integers, ``bits_per_counter``) follows
:class:`repro.core.accounting.BitCostModel`: float64 wire fields are
coefficients, int64 wire fields are counters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from ..core.accounting import BitCostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.lptype import LPTypeProblem

__all__ = [
    "Payload",
    "Flag",
    "Count",
    "Scalar",
    "Vector",
    "IndexBlock",
    "ConstraintBlock",
    "BasisPayload",
    "StatsBlock",
    "decode_payload",
    "constraint_rows",
]

_COEFF = b"f"  # float64 field -> charged as coefficients
_COUNT = b"i"  # int64 field   -> charged as counters
_TEXT = b"t"  # utf-8 tag     -> protocol framing, charged zero bits


def _write_array(parts: list[bytes], values: np.ndarray, code: bytes) -> None:
    dtype = np.float64 if code == _COEFF else np.int64
    arr = np.ascontiguousarray(np.asarray(values).reshape(-1), dtype=dtype)
    parts.append(code)
    parts.append(struct.pack("<I", arr.size))
    parts.append(arr.tobytes())


def _write_text(parts: list[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    parts.append(_TEXT)
    parts.append(struct.pack("<I", len(raw)))
    parts.append(raw)


class _WireReader:
    """Sequential reader over the canonical wire format.

    Accepts ``bytes`` or a ``memoryview`` — the process transports' frame
    codec hands in zero-copy views of larger wire frames.
    """

    def __init__(self, data: "bytes | memoryview") -> None:
        self.data = data
        self.offset = 0

    def read_field(self) -> Any:
        code = bytes(self.data[self.offset : self.offset + 1])
        (count,) = struct.unpack_from("<I", self.data, self.offset + 1)
        self.offset += 5
        if code == _TEXT:
            raw = self.data[self.offset : self.offset + count]
            self.offset += count
            return bytes(raw).decode("utf-8")
        dtype = np.float64 if code == _COEFF else np.int64
        nbytes = count * 8
        arr = np.frombuffer(
            self.data, dtype=dtype, count=count, offset=self.offset
        ).copy()
        self.offset += nbytes
        return arr


@dataclass(frozen=True)
class Payload:
    """Base class of all fabric payloads.

    Subclasses define :meth:`_fields` — the ordered wire fields — from which
    serialization, deserialization, and the measured bit size all derive, so
    the three can never disagree.
    """

    kind = "payload"

    def _fields(self) -> list[tuple[bytes, Any]]:
        """Ordered ``(code, value)`` wire fields of this payload."""
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """Serialize into the canonical wire format."""
        parts: list[bytes] = [_KIND_BYTES[type(self)]]
        for code, value in self._fields():
            if code == _TEXT:
                _write_text(parts, value)
            else:
                _write_array(parts, value, code)
        return b"".join(parts)

    def wire_counts(self) -> tuple[int, int]:
        """``(num_coefficients, num_counters)`` actually written to the wire."""
        coefficients = 0
        counters = 0
        for code, value in self._fields():
            if code == _COEFF:
                coefficients += int(np.asarray(value).size)
            elif code == _COUNT:
                counters += int(np.asarray(value).size)
        return coefficients, counters

    def measured_bits(self, cost_model: BitCostModel) -> int:
        """Bit cost of this payload, measured from its serialized content."""
        coefficients, counters = self.wire_counts()
        return cost_model.coefficients(coefficients) + cost_model.counters(counters)


@dataclass(frozen=True)
class Flag(Payload):
    """A tagged one-counter control message (success flags, mode switches)."""

    tag: str
    value: int

    kind = "flag"

    def _fields(self) -> list[tuple[bytes, Any]]:
        return [(_TEXT, self.tag), (_COUNT, np.asarray([self.value]))]

    @classmethod
    def _decode(cls, reader: _WireReader) -> "Flag":
        tag = reader.read_field()
        value = reader.read_field()
        return cls(tag=tag, value=int(value[0]))


@dataclass(frozen=True)
class Count(Payload):
    """One small integer (a sample count, an index, a position)."""

    value: int

    kind = "count"

    def _fields(self) -> list[tuple[bytes, Any]]:
        return [(_COUNT, np.asarray([self.value]))]

    @classmethod
    def _decode(cls, reader: _WireReader) -> "Count":
        return cls(value=int(reader.read_field()[0]))


@dataclass(frozen=True)
class Scalar(Payload):
    """One real number (a weight total, an objective value)."""

    value: float

    kind = "scalar"

    def _fields(self) -> list[tuple[bytes, Any]]:
        return [(_COEFF, np.asarray([self.value]))]

    @classmethod
    def _decode(cls, reader: _WireReader) -> "Scalar":
        return cls(value=float(reader.read_field()[0]))


@dataclass(frozen=True)
class Vector(Payload):
    """A dense vector of real coefficients."""

    values: np.ndarray

    kind = "vector"

    def _fields(self) -> list[tuple[bytes, Any]]:
        return [(_COEFF, self.values)]

    @classmethod
    def _decode(cls, reader: _WireReader) -> "Vector":
        return cls(values=reader.read_field())


@dataclass(frozen=True)
class IndexBlock(Payload):
    """A block of constraint indices (counters, not coefficients)."""

    indices: np.ndarray

    kind = "indices"

    def _fields(self) -> list[tuple[bytes, Any]]:
        return [(_COUNT, self.indices)]

    @classmethod
    def _decode(cls, reader: _WireReader) -> "IndexBlock":
        return cls(indices=reader.read_field())


@dataclass(frozen=True)
class ConstraintBlock(Payload):
    """A block of whole constraints: global indices plus their coefficient rows.

    This is what a site/machine actually ships when it contributes its part
    of an eps-net sample: each constraint costs its identity (one counter)
    plus its ``payload_num_coefficients`` real coefficients — the serialized
    rows, not a caller-declared estimate.
    """

    indices: np.ndarray
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    kind = "constraints"

    def _fields(self) -> list[tuple[bytes, Any]]:
        return [
            (_COUNT, self.indices),
            (_COUNT, np.asarray(self.rows.shape, dtype=np.int64)),
            (_COEFF, self.rows),
        ]

    def wire_counts(self) -> tuple[int, int]:
        # The shape header is framing (it is implied by the indices count and
        # the problem family), so only the identities and the rows are
        # charged; the identities are counters, the rows coefficients.
        return int(np.asarray(self.rows).size), int(np.asarray(self.indices).size)

    @classmethod
    def _decode(cls, reader: _WireReader) -> "ConstraintBlock":
        indices = reader.read_field()
        shape = tuple(int(s) for s in reader.read_field())
        rows = reader.read_field().reshape(shape)
        return cls(indices=indices, rows=rows)


@dataclass(frozen=True)
class BasisPayload(Payload):
    """A basis broadcast: basis constraints (identity + rows) plus the witness."""

    indices: np.ndarray
    rows: np.ndarray
    witness: np.ndarray
    flag: int = 0

    kind = "basis"

    def _fields(self) -> list[tuple[bytes, Any]]:
        return [
            (_COUNT, self.indices),
            (_COUNT, np.asarray(self.rows.shape, dtype=np.int64)),
            (_COEFF, self.rows),
            (_COEFF, self.witness),
            (_COUNT, np.asarray([self.flag])),
        ]

    def wire_counts(self) -> tuple[int, int]:
        coefficients = int(np.asarray(self.rows).size) + int(
            np.asarray(self.witness).size
        )
        counters = int(np.asarray(self.indices).size) + 1  # identities + flag
        return coefficients, counters

    @classmethod
    def _decode(cls, reader: _WireReader) -> "BasisPayload":
        indices = reader.read_field()
        shape = tuple(int(s) for s in reader.read_field())
        rows = reader.read_field().reshape(shape)
        witness = reader.read_field()
        flag = int(reader.read_field()[0])
        return cls(indices=indices, rows=rows, witness=witness, flag=flag)


@dataclass(frozen=True)
class StatsBlock(Payload):
    """A fixed-size block of real statistics (violator weight, totals, ...)."""

    values: np.ndarray

    kind = "stats"

    def _fields(self) -> list[tuple[bytes, Any]]:
        return [(_COEFF, self.values)]

    @classmethod
    def _decode(cls, reader: _WireReader) -> "StatsBlock":
        return cls(values=reader.read_field())


_PAYLOAD_TYPES: tuple[type[Payload], ...] = (
    Flag,
    Count,
    Scalar,
    Vector,
    IndexBlock,
    ConstraintBlock,
    BasisPayload,
    StatsBlock,
)
_KIND_BYTES: Mapping[type, bytes] = {
    cls: bytes([i]) for i, cls in enumerate(_PAYLOAD_TYPES)
}


def decode_payload(data: "bytes | memoryview") -> Payload:
    """Reconstruct a payload from its canonical wire bytes (or a view)."""
    kind = data[0]
    if kind >= len(_PAYLOAD_TYPES):
        raise ValueError(f"unknown payload kind byte {kind}")
    reader = _WireReader(data)
    reader.offset = 1
    return _PAYLOAD_TYPES[kind]._decode(reader)


def constraint_rows(problem: "LPTypeProblem", indices: np.ndarray) -> np.ndarray:
    """The serialized coefficient rows of ``indices``: shape ``(k, coeffs)``.

    Built from the packed constraint data plane, which is exactly the
    ``payload_num_coefficients`` payload the accounting charges per shipped
    constraint.  Two layouts cover the built-in families without dropping
    data:

    * payload width == pack width (MEB: one point per constraint encoded as
      the packed ``-2q`` row) — the packed row *is* the constraint;
    * payload width == pack width + 1 (LP/SVM/QP: coefficient row plus a
      right-hand side) — the packed row with ``rhs`` appended.

    Problems without a pack, or with an unrecognised width, fall back to a
    zero block of the declared payload width: the *measured* size still
    equals the modelled size, and nothing is silently mislabelled as real
    constraint data.
    """
    idx = np.asarray(indices, dtype=int)
    width = problem.payload_num_coefficients()
    pack = problem.constraint_pack()
    if pack is None or idx.size == 0:
        return np.zeros((idx.size, width), dtype=np.float64)
    pack_width = int(pack.rows.shape[1])
    if width == pack_width:
        return np.ascontiguousarray(pack.rows[idx], dtype=np.float64)
    if width == pack_width + 1:
        block = np.empty((idx.size, width), dtype=np.float64)
        block[:, :pack_width] = pack.rows[idx]
        block[:, pack_width] = pack.rhs[idx]
        return block
    return np.zeros((idx.size, width), dtype=np.float64)


def encode_witness_vector(problem: "LPTypeProblem", witness: Any) -> np.ndarray:
    """The witness as a flat coefficient vector for a :class:`BasisPayload`."""
    encoded = problem.encode_witness(witness)
    if encoded is not None:
        vector, offset = encoded
        return np.concatenate([np.asarray(vector, dtype=np.float64).reshape(-1), [offset]])
    try:
        return np.asarray(witness, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError):
        return np.zeros(problem.dimension, dtype=np.float64)
