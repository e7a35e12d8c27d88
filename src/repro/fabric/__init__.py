"""The unified communication fabric under the streaming, coordinator, and MPC models.

One payload layer, one transport layer and one topology layer carry every
model:

* :mod:`repro.fabric.payload` — typed, serializable message payloads whose
  bit size is *measured from the serialized form*, never declared by callers;
* :mod:`repro.fabric.transport` — how node-local computation executes and how
  payloads move: :class:`InProcessTransport` (deterministic, zero-copy,
  default) and one :class:`JournaledTransport` for out-of-process workers —
  one worker command loop (:func:`worker_loop`), one per-session journal and
  one recovery ladder — configured as :class:`ProcessPoolTransport` (pipe
  workers) or :class:`~repro.cluster.transport.TcpTransport` (node agents),
  bit-identical results to in-process;
* :mod:`repro.fabric.topology` — who talks to whom and when: star and
  tree-aggregation coordinator topologies, the round-synchronous MPC grid,
  and the single-reader stream, all feeding one shared
  :class:`~repro.core.accounting.RoundLedger`.

The distributed drivers and the baselines in :mod:`repro.algorithms` speak
only to topologies — the same driver code runs unchanged on every transport
and on either coordinator topology.
"""

from .payload import (
    BasisPayload,
    ConstraintBlock,
    Count,
    Flag,
    IndexBlock,
    Payload,
    Scalar,
    StatsBlock,
    Vector,
    constraint_rows,
    decode_payload,
    encode_witness_vector,
)
from .transport import (
    InProcessTransport,
    JournaledTransport,
    ProcessPoolTransport,
    Transport,
    resolve_transport,
)
from .topology import (
    GridTopology,
    StarTopology,
    StreamTopology,
    Topology,
    TreeTopology,
)

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
    "encode_witness_vector",
    "Transport",
    "InProcessTransport",
    "JournaledTransport",
    "ProcessPoolTransport",
    "resolve_transport",
    "Topology",
    "StarTopology",
    "TreeTopology",
    "GridTopology",
    "StreamTopology",
]
