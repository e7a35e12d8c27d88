"""Topologies: who talks to whom, in which round, at what measured cost.

A :class:`Topology` owns round management and the communication ledger for
one run; payload bits are always **measured** (via
:meth:`~repro.fabric.payload.Payload.measured_bits`), never declared.  Four
concrete topologies cover the paper's models:

* :class:`StarTopology` — the classic coordinator model: one hub, ``k``
  sites, one ledger round per down+up exchange;
* :class:`TreeTopology` — the tree-aggregation coordinator variant: sites
  form a ``fanout``-ary tree under the hub, collectives run level-synchronous
  (one ledger round per tree level), combinable gathers shrink the hub's
  per-round load from ``k * b`` to ``fanout * b`` at the price of a
  ``ceil(log_fanout k)`` round factor;
* :class:`GridTopology` — the round-synchronous MPC substrate: point-to-point
  sends plus the Goodrich et al. broadcast/aggregation trees, with per-round
  per-machine load accounting;
* :class:`StreamTopology` — the single-reader stream: no communication, one
  ledger round per pass.

:func:`partition_indices` splits the constraint indices over the sites or
machines of a topology.  The coordinator and MPC models assume the input is
*arbitrarily* partitioned, so algorithms must work for every partition; the
helper produces the ones tests and benchmarks use, skewed ones included.

Node-local computation is delegated to the attached
:class:`~repro.fabric.transport.Transport`; the topology only decides *when*
nodes run and what the message flow around them costs.  Every topology keeps
the same four aggregate currencies — ``rounds``, ``total_bits``,
``max_message_bits``, ``max_load_bits`` — and :meth:`Topology.usage` maps
them, with the per-round ledger, onto
:class:`~repro.core.result.ResourceUsage` in one place.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from ..core.accounting import BitCostModel, RoundLedger
from ..core.context import solve_context
from ..core.exceptions import CommunicationError
from ..core.result import ResourceUsage
from ..core.rng import SeedLike, as_generator
from .payload import Payload
from .transport import InProcessTransport, Transport, new_session

__all__ = [
    "Topology",
    "StarTopology",
    "TreeTopology",
    "GridTopology",
    "StreamTopology",
    "partition_indices",
]

#: Hub pseudo-node id used in load accounting by the coordinator topologies.
HUB = -1


class Topology:
    """Shared plumbing: ledger, aggregate counters, and node-state hosting."""

    def __init__(
        self,
        num_nodes: int,
        transport: Optional[Transport] = None,
        cost_model: Optional[BitCostModel] = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = int(num_nodes)
        self.transport = transport or InProcessTransport()
        self.cost_model = cost_model or BitCostModel()
        self.ledger = RoundLedger()
        self.session = new_session()
        self.total_bits = 0
        self.max_message_bits = 0
        self.max_load_bits = 0

    # ------------------------------------------------------------------ #
    # Node state hosting (delegated to the transport)
    # ------------------------------------------------------------------ #

    def share(self, key: str, value: Any) -> None:
        """Install a session-shared object nodes reference via ``SharedRef``.

        Ships large read-only objects (the problem instance) once per worker
        instead of once per node state.
        """
        self.transport.init_shared(self.session, key, value)

    def init_state(self, node_id: int, state: Any) -> None:
        """Install one node's initial state on the transport."""
        self.transport.init_node(self.session, node_id, state)

    def run_all(
        self,
        fn: Callable[..., Any],
        args_list: Sequence[tuple],
        node_ids: Optional[Sequence[int]] = None,
    ) -> list[Any]:
        """Run ``fn(state, *args) -> (state, result)`` on the listed nodes."""
        ids = list(range(self.num_nodes)) if node_ids is None else list(node_ids)
        plan = self.transport._active_plan()
        if plan is not None:
            # Chaos probe: a matching ``slow_node`` spec stalls this node's
            # dispatch — pure latency, never divergence, so faulted solves
            # stay bit-identical.
            for node_id in ids:
                spec = plan.take("node", node=node_id)
                if spec is not None and spec.kind == "slow_node" and spec.delay_s > 0:
                    time.sleep(spec.delay_s)
        return self.transport.run_nodes(self.session, ids, fn, args_list)

    def run_on(self, node_id: int, fn: Callable[..., Any], *args: Any) -> Any:
        return self.transport.run_node(self.session, node_id, fn, *args)

    def close(self) -> None:
        """Release this run's node states; tear down a run-private transport.

        Shared transports (the default in-process one is per-run anyway, and
        the reusable process pool is shared deliberately) only drop this
        session's states; a transport marked ``private`` — e.g. a dedicated
        ``reuse_pool=False`` process pool — is fully closed so its worker
        processes cannot leak.
        """
        self.transport.release(self.session)
        if self.transport.private:
            self.transport.close()

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    @property
    def rounds(self) -> int:
        return self.ledger.num_rounds

    def usage(self) -> ResourceUsage:
        """The run's communication so far, as ``ResourceUsage`` currencies."""
        return ResourceUsage(
            rounds=self.rounds,
            total_communication_bits=self.total_bits,
            max_message_bits=self.max_message_bits,
            max_machine_load_bits=self.max_load_bits,
            machine_count=self.num_nodes,
            per_round=self.ledger.as_table(),
        )

    def measure(self, payload: Payload) -> int:
        """Measured bit size of one payload under this topology's cost model."""
        return payload.measured_bits(self.cost_model)

    def _note_message(self, bits: int) -> None:
        self.total_bits += bits
        self.max_message_bits = max(self.max_message_bits, bits)
        # Per-request communication budgets (session/service API): every
        # measured message is charged against the solve's meter, if any.
        meter = solve_context().meter
        if meter is not None:
            meter.charge_bits(bits)

    def _note_round_load(self, load: int) -> None:
        self.max_load_bits = max(self.max_load_bits, load)


class StarTopology(Topology):
    """Hub-and-spoke coordinator communication: one ledger round per exchange."""

    def __init__(
        self,
        num_sites: int,
        transport: Optional[Transport] = None,
        cost_model: Optional[BitCostModel] = None,
    ) -> None:
        super().__init__(num_sites, transport, cost_model)
        self._round_open = False
        self._bits_down = 0
        self._bits_up = 0
        # Per-round sent+received bits per participant (hub is the last slot).
        self._sent = np.zeros(self.num_nodes + 1, dtype=np.int64)
        self._received = np.zeros(self.num_nodes + 1, dtype=np.int64)

    @property
    def num_sites(self) -> int:
        return self.num_nodes

    def begin_round(self) -> None:
        if self._round_open:
            raise CommunicationError("previous round is still open")
        self._round_open = True
        self._bits_down = 0
        self._bits_up = 0
        self._sent[:] = 0
        self._received[:] = 0

    def end_round(self) -> None:
        if not self._round_open:
            raise CommunicationError("no round is open")
        load = int(max(self._sent.max(initial=0), self._received.max(initial=0)))
        self._note_round_load(load)
        self.ledger.record(
            bits_down=self._bits_down,
            bits_up=self._bits_up,
            bits=self._bits_down + self._bits_up,
            load=load,
        )
        self._round_open = False

    def _check_site(self, site_id: int) -> None:
        if not self._round_open:
            raise CommunicationError("messages may only be sent inside an open round")
        if not 0 <= site_id < self.num_nodes:
            raise CommunicationError(f"site {site_id} does not exist")

    def send_down(self, site_id: int, payload: Payload) -> Payload:
        """Hub -> site; returns the payload as the site observes it."""
        self._check_site(site_id)
        bits = self.measure(payload)
        self._bits_down += bits
        self._sent[-1] += bits
        self._received[site_id] += bits
        self._note_message(bits)
        return self.transport.deliver(payload)

    def send_up(self, site_id: int, payload: Payload) -> Payload:
        """Site -> hub; returns the payload as the hub observes it."""
        self._check_site(site_id)
        bits = self.measure(payload)
        self._bits_up += bits
        self._sent[site_id] += bits
        self._received[-1] += bits
        self._note_message(bits)
        return self.transport.deliver(payload)

    def broadcast_down(self, payload: Payload) -> Payload:
        """The same payload from the hub to every site (k messages)."""
        delivered = payload
        for site_id in range(self.num_nodes):
            delivered = self.send_down(site_id, payload)
        return delivered

    def scatter_down(self, payloads: Sequence[Payload]) -> list[Payload]:
        """Per-site payloads from the hub (one message per site)."""
        if len(payloads) != self.num_nodes:
            raise CommunicationError("need exactly one payload per site")
        return [self.send_down(s, p) for s, p in enumerate(payloads)]

    def gather_up(
        self, payloads: Sequence[Payload], combinable: bool = False
    ) -> list[Payload]:
        """Per-site payloads to the hub (``combinable`` is a no-op on a star)."""
        if len(payloads) != self.num_nodes:
            raise CommunicationError("need exactly one payload per site")
        return [self.send_up(s, p) for s, p in enumerate(payloads)]


class TreeTopology(Topology):
    """Tree-aggregation coordinator variant with the same collective API.

    Sites form a ``fanout``-ary heap-ordered tree rooted at site 0; the hub
    attaches above the root.  Collectives run level by level and every level
    is one ledger round, so one driver exchange costs ``depth_down +
    depth_up`` rounds instead of 1 — but a combinable gather delivers at most
    ``fanout`` messages to any node per round, collapsing the hub's per-round
    load from ``k * b`` (star) to ``b``.
    """

    def __init__(
        self,
        num_sites: int,
        fanout: int = 2,
        transport: Optional[Transport] = None,
        cost_model: Optional[BitCostModel] = None,
    ) -> None:
        super().__init__(num_sites, transport, cost_model)
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.fanout = int(fanout)
        self._round_open = False
        # Pending level records of the open exchange:
        # (down: bool, bits, per-node sent, per-node received).
        self._levels: list[tuple[bool, int, np.ndarray, np.ndarray]] = []
        # Level (depth) of each site; root (site 0) has level 0.
        self._site_level = np.zeros(self.num_nodes, dtype=int)
        for site in range(1, self.num_nodes):
            self._site_level[site] = self._site_level[self._parent(site)] + 1
        self.depth = int(self._site_level.max(initial=0)) + 1  # + hub -> root

    @property
    def num_sites(self) -> int:
        return self.num_nodes

    def _parent(self, site: int) -> int:
        return (site - 1) // self.fanout

    def _children(self, site: int) -> range:
        first = self.fanout * site + 1
        return range(first, min(first + self.fanout, self.num_nodes))

    def _subtree(self, site: int) -> list[int]:
        stack, seen = [site], []
        while stack:
            node = stack.pop()
            seen.append(node)
            stack.extend(self._children(node))
        return seen

    def begin_round(self) -> None:
        if self._round_open:
            raise CommunicationError("previous round is still open")
        self._round_open = True
        self._levels = []

    def end_round(self) -> None:
        """Close the exchange: one ledger round per accumulated tree level."""
        if not self._round_open:
            raise CommunicationError("no round is open")
        for down, bits, sent, received in self._levels:
            load = int(max(sent.max(initial=0), received.max(initial=0)))
            self._note_round_load(load)
            self.ledger.record(
                bits_down=bits if down else 0,
                bits_up=0 if down else bits,
                bits=bits,
                load=load,
            )
        self._levels = []
        self._round_open = False

    def _charge_level(
        self, down: bool, edges: Sequence[tuple[int, int, int]]
    ) -> None:
        """One synchronous level: ``(sender, receiver, bits)`` per edge.

        Node id ``HUB`` denotes the hub; it occupies the extra slot of the
        per-node arrays.
        """
        if not self._round_open:
            raise CommunicationError("messages may only be sent inside an open round")
        sent = np.zeros(self.num_nodes + 1, dtype=np.int64)
        received = np.zeros(self.num_nodes + 1, dtype=np.int64)
        bits_total = 0
        for sender, receiver, bits in edges:
            sent[sender] += bits
            received[receiver] += bits
            bits_total += bits
            self._note_message(bits)
        self._levels.append((down, bits_total, sent, received))

    # ------------------------------------------------------------------ #
    # Collectives (same driver-facing API as StarTopology)
    # ------------------------------------------------------------------ #

    def broadcast_down(self, payload: Payload) -> Payload:
        """One payload to every site: each tree edge forwards it once."""
        bits = self.measure(payload)
        self._charge_level(True, [(HUB, 0, bits)])
        for level in range(int(self._site_level.max(initial=0))):
            edges = [
                (parent, child, bits)
                for parent in np.flatnonzero(self._site_level == level)
                for child in self._children(int(parent))
            ]
            if edges:
                self._charge_level(True, edges)
        return self.transport.deliver(payload)

    def scatter_down(self, payloads: Sequence[Payload]) -> list[Payload]:
        """Per-site payloads, forwarded along the tree path to each site.

        The edge into a node carries the payloads of that node's whole
        subtree, so the hub's single message to the root bundles everything —
        scatters are where the star wins and the tree pays.
        """
        if len(payloads) != self.num_nodes:
            raise CommunicationError("need exactly one payload per site")
        sizes = np.asarray([self.measure(p) for p in payloads], dtype=np.int64)
        subtree_bits = np.zeros(self.num_nodes, dtype=np.int64)
        for site in range(self.num_nodes):
            subtree_bits[site] = sizes[self._subtree(site)].sum()
        self._charge_level(True, [(HUB, 0, int(subtree_bits[0]))])
        for level in range(int(self._site_level.max(initial=0))):
            edges = [
                (int(parent), child, int(subtree_bits[child]))
                for parent in np.flatnonzero(self._site_level == level)
                for child in self._children(int(parent))
            ]
            if edges:
                self._charge_level(True, edges)
        return [self.transport.deliver(p) for p in payloads]

    def gather_up(
        self, payloads: Sequence[Payload], combinable: bool = False
    ) -> list[Payload]:
        """Per-site payloads converge-cast to the hub.

        With ``combinable=True`` an internal node merges its subtree into one
        payload-sized message (the tree's raison d'être); otherwise subtree
        payloads are forwarded verbatim and the edge carries their sum.
        """
        if len(payloads) != self.num_nodes:
            raise CommunicationError("need exactly one payload per site")
        sizes = np.asarray([self.measure(p) for p in payloads], dtype=np.int64)
        if combinable:
            up_bits = np.zeros(self.num_nodes, dtype=np.int64)
            for site in range(self.num_nodes):
                subtree = self._subtree(site)
                up_bits[site] = int(sizes[subtree].max(initial=0))
        else:
            up_bits = np.zeros(self.num_nodes, dtype=np.int64)
            for site in range(self.num_nodes):
                up_bits[site] = int(sizes[self._subtree(site)].sum())
        for level in range(int(self._site_level.max(initial=0)), 0, -1):
            edges = [
                (int(child), self._parent(int(child)), int(up_bits[child]))
                for child in np.flatnonzero(self._site_level == level)
            ]
            if edges:
                self._charge_level(False, edges)
        self._charge_level(False, [(0, HUB, int(up_bits[0]))])
        return [self.transport.deliver(p) for p in payloads]


class GridTopology(Topology):
    """Round-synchronous all-to-all MPC communication with load accounting."""

    def __init__(
        self,
        num_machines: int,
        transport: Optional[Transport] = None,
        cost_model: Optional[BitCostModel] = None,
    ) -> None:
        super().__init__(num_machines, transport, cost_model)
        self._round_open = False
        self._sent = np.zeros(self.num_nodes, dtype=np.int64)
        self._received = np.zeros(self.num_nodes, dtype=np.int64)

    @property
    def num_machines(self) -> int:
        return self.num_nodes

    def begin_round(self) -> None:
        if self._round_open:
            raise CommunicationError("previous round is still open")
        self._round_open = True
        self._sent[:] = 0
        self._received[:] = 0

    def end_round(self) -> None:
        if not self._round_open:
            raise CommunicationError("no round is open")
        round_load = int(max(self._sent.max(initial=0), self._received.max(initial=0)))
        self._note_round_load(round_load)
        self.ledger.record(load=round_load, bits=int(self._sent.sum()))
        self._round_open = False

    def send(self, source: int, destination: int, payload: Payload) -> Payload:
        """Record one point-to-point message this round; returns the delivery."""
        if not self._round_open:
            raise CommunicationError("messages may only be sent inside an open round")
        for machine_id in (source, destination):
            if not 0 <= machine_id < self.num_nodes:
                raise CommunicationError(f"machine {machine_id} does not exist")
        bits = self.measure(payload)
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self._sent[source] += bits
        self._received[destination] += bits
        self._note_message(bits)
        return self.transport.deliver(payload)

    # ------------------------------------------------------------------ #
    # Collective primitives (Goodrich et al. [23])
    # ------------------------------------------------------------------ #

    def broadcast_tree(self, root: int, payload: Payload, fanout: int) -> int:
        """Fan-out broadcast from ``root``; returns the rounds used."""
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        informed = {root}
        rounds_used = 0
        while len(informed) < self.num_nodes:
            self.begin_round()
            newly_informed: set[int] = set()
            targets = [m for m in range(self.num_nodes) if m not in informed]
            slots = iter(targets)
            for sender in sorted(informed):
                for _ in range(fanout):
                    try:
                        target = next(slots)
                    except StopIteration:
                        break
                    self.send(sender, target, payload)
                    newly_informed.add(target)
            informed |= newly_informed
            self.end_round()
            rounds_used += 1
        return rounds_used

    def aggregate_tree(
        self,
        root: int,
        payload: Payload,
        fanout: int,
        values: Optional[Sequence[Any]] = None,
        combine: Optional[Callable[[Any, Any], Any]] = None,
    ) -> tuple[int, Any]:
        """Converge-cast one fixed-size value per machine into ``root``.

        ``payload`` is the per-edge message (its measured size is charged on
        every tree edge); ``values``/``combine`` optionally compute the
        actual aggregate.  Returns ``(rounds_used, aggregate)``.
        """
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        active = list(range(self.num_nodes))
        partials = list(values) if values is not None else [None] * self.num_nodes
        rounds_used = 0
        while len(active) > 1:
            self.begin_round()
            survivors: list[int] = []
            for start in range(0, len(active), fanout):
                group = active[start : start + fanout]
                head = group[0] if root not in group else root
                for member in group:
                    if member == head:
                        continue
                    self.send(member, head, payload)
                    if combine is not None:
                        partials[head] = combine(partials[head], partials[member])
                survivors.append(head)
            active = survivors
            self.end_round()
            rounds_used += 1
        final_holder = active[0]
        if final_holder != root and self.num_nodes > 1:
            self.begin_round()
            self.send(final_holder, root, payload)
            if values is not None:
                partials[root] = partials[final_holder]
            self.end_round()
            rounds_used += 1
        return rounds_used, partials[root] if values is not None else None


class StreamTopology(Topology):
    """The single-reader stream: one node, no messages, one round per pass."""

    def __init__(
        self,
        num_items: int,
        order: Optional[Sequence[int]] = None,
        transport: Optional[Transport] = None,
        cost_model: Optional[BitCostModel] = None,
    ) -> None:
        super().__init__(1, transport, cost_model)
        if num_items < 0:
            raise ValueError("num_items must be non-negative")
        if order is None:
            self._order = np.arange(num_items, dtype=int)
        else:
            self._order = np.asarray(order, dtype=int)
            if self._order.size != num_items:
                raise ValueError(
                    f"order has {self._order.size} entries, expected {num_items}"
                )
            if num_items and (
                self._order.min() < 0
                or self._order.max() >= num_items
                or np.unique(self._order).size != num_items
            ):
                raise ValueError("order must be a permutation of range(num_items)")

    @property
    def num_items(self) -> int:
        return int(self._order.size)

    @property
    def passes(self) -> int:
        return self.ledger.num_rounds

    def usage(self) -> ResourceUsage:
        """The passes made so far; a stream moves no bits between nodes."""
        return ResourceUsage(passes=self.passes, per_round=self.ledger.as_table())

    def order(self) -> np.ndarray:
        """The arrival order (a copy)."""
        return self._order.copy()

    def record_pass(self) -> None:
        """Account one pass over the stream (no bits move; items are read)."""
        self.ledger.record(items=self.num_items, bits=0, load=0)

    def run_pass(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one full pass as a node task on the (single) reader node."""
        self.record_pass()
        return self.run_on(0, fn, *args)

    @staticmethod
    def iter_chunks(order: np.ndarray, chunk_size: int) -> Iterator[np.ndarray]:
        """The stream order in bounded read-only chunks (shared helper)."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, order.size, chunk_size):
            chunk = order[start : start + chunk_size]
            chunk.flags.writeable = False
            yield chunk


_PARTITION_METHODS = ("round_robin", "contiguous", "random", "skewed")


def partition_indices(
    num_items: int,
    num_parts: int,
    method: str = "round_robin",
    seed: SeedLike = None,
    skew: float = 2.0,
) -> list[np.ndarray]:
    """Split ``range(num_items)`` into ``num_parts`` disjoint index arrays.

    Parameters
    ----------
    num_items:
        Number of constraints to distribute.
    num_parts:
        Number of sites / machines; every part is returned even if empty.
    method:
        ``"round_robin"`` (item ``i`` to part ``i mod k``), ``"contiguous"``
        (equal consecutive blocks), ``"random"`` (uniformly random
        assignment), or ``"skewed"`` (random assignment with a power-law
        preference for low-numbered parts, to exercise load imbalance).
    seed:
        Randomness for the random / skewed methods.
    skew:
        Exponent of the power-law used by the skewed method.
    """
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if method not in _PARTITION_METHODS:
        raise ValueError(
            f"unknown partition method {method!r}; choose from {_PARTITION_METHODS}"
        )

    indices = np.arange(num_items, dtype=int)
    if method == "round_robin":
        return [indices[p::num_parts] for p in range(num_parts)]
    if method == "contiguous":
        boundaries = np.linspace(0, num_items, num_parts + 1, dtype=int)
        return [indices[boundaries[p] : boundaries[p + 1]] for p in range(num_parts)]

    rng = as_generator(seed)
    if method == "random":
        assignment = rng.integers(0, num_parts, size=num_items)
    else:  # skewed
        raw = rng.random(num_parts) ** skew
        probabilities = raw / raw.sum()
        assignment = rng.choice(num_parts, size=num_items, p=probabilities)
    return [indices[assignment == p] for p in range(num_parts)]
