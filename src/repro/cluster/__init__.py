"""The cluster subsystem: real multi-host execution for the fabric.

Four modules turn the fabric's in-process/`multiprocessing` node abstraction
into a network-real one:

* :mod:`repro.cluster.protocol` — length-prefixed, marked pickle frames
  (:mod:`~repro.fabric.wirecodec`) over TCP sockets, plus the
  registration handshake (protocol/version negotiation);
* :mod:`repro.cluster.agent` — the node agent process
  (``python -m repro node --connect host:port``): registers with a
  coordinator, runs the fabric's one worker command loop
  (:func:`~repro.fabric.transport.worker_loop`) over its socket, and streams
  heartbeats;
* :mod:`repro.cluster.registry` — coordinator-side membership: accepted /
  dialed agents, per-node liveness (``joining``/``ready``/``suspect``/
  ``dead``) driven by a clock-injectable :class:`HeartbeatMonitor`, and
  draining on shutdown;
* :mod:`repro.cluster.transport` — :class:`TcpTransport`, the fabric's
  :class:`~repro.fabric.transport.JournaledTransport` over registry members
  instead of pipe workers: the same journal, recovery ladder and in-process
  degradation as the process pool, and the same bit-identity contract.

Enable it with ``TransportConfig(kind="tcp")`` — by default the transport
spawns ``max_workers`` loopback agents, so single-host callers need no
manual agent management; point ``addresses=`` / external ``--connect``
agents at it for true multi-host runs.  See ``docs/fabric.md``.
"""

from .membership import HeartbeatMonitor, LIVENESS_STATES, MemberClock
from .protocol import (
    FrameConnection,
    HandshakeError,
    PROTOCOL_NAME,
    SUPPORTED_VERSIONS,
    parse_address,
)
from .registry import ClusterRegistry
from .agent import NodeAgent
from .transport import TcpTransport

__all__ = [
    "ClusterRegistry",
    "FrameConnection",
    "HandshakeError",
    "HeartbeatMonitor",
    "LIVENESS_STATES",
    "MemberClock",
    "NodeAgent",
    "PROTOCOL_NAME",
    "SUPPORTED_VERSIONS",
    "TcpTransport",
    "parse_address",
]
