"""Nodes and network bookkeeping.

The network is the simulator's ground truth about *who exists* and
*who is alive*.  Protocols never hold direct references to other
protocol instances; they address peers by :class:`NodeId` and resolve
them through the network, exactly as PeerSim protocols address peers
through ``Node`` handles.  This indirection is what makes churn
(crash = flip a liveness bit) cheap and consistent.

Design notes
------------

* Node ids are dense non-negative integers, never reused.  This keeps
  id → node lookup O(1) via a list and makes traces unambiguous.
* ``live_ids`` maintains a sorted array of currently-live ids so that
  uniform random *live* node selection (needed by churn and by
  "oracle" experiments that bypass peer sampling) is O(1) without
  rejection sampling.
* The network is deliberately ignorant of protocols' semantics: it
  stores per-node protocol instances keyed by name and leaves all
  behaviour to the engine and the protocols themselves.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

import numpy as np

from repro.utils.exceptions import SimulationError

__all__ = ["NodeId", "Node", "Network"]

NodeId = int


class Node:
    """One simulated peer: an id, a liveness flag, and its protocols.

    Attributes
    ----------
    node_id:
        Dense integer identity, unique for the lifetime of the network.
    birth_cycle:
        Cycle (or event time) at which the node joined; 0 for initial
        population.  Used by churn analyses.
    """

    __slots__ = ("node_id", "alive", "birth_cycle", "_protocols")

    def __init__(self, node_id: NodeId, birth_cycle: int = 0):
        self.node_id = node_id
        self.alive = True
        self.birth_cycle = birth_cycle
        self._protocols: dict[str, object] = {}

    def attach(self, name: str, protocol: object) -> None:
        """Register a protocol instance under ``name``.

        Engines call protocols in attachment order, which therefore
        defines intra-cycle ordering (topology service before
        coordination service, etc.).
        """
        if name in self._protocols:
            raise SimulationError(f"node {self.node_id}: protocol {name!r} already attached")
        self._protocols[name] = protocol

    def protocol(self, name: str):
        """Return the protocol instance registered under ``name``."""
        try:
            return self._protocols[name]
        except KeyError:
            raise SimulationError(
                f"node {self.node_id} has no protocol {name!r}"
            ) from None

    def has_protocol(self, name: str) -> bool:
        """Whether a protocol named ``name`` is attached."""
        return name in self._protocols

    @property
    def protocols(self) -> Mapping[str, object]:
        """Read-only view of attached protocols (attachment order)."""
        return dict(self._protocols)

    def protocol_names(self) -> list[str]:
        """Names of attached protocols, in attachment order."""
        return list(self._protocols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.alive else "down"
        return f"Node({self.node_id}, {state}, protocols={list(self._protocols)})"


class Network:
    """The population of nodes and its liveness index.

    Parameters
    ----------
    rng:
        Generator used *only* for network-level random choices
        (uniform live-node sampling).  Protocol randomness comes from
        the protocols' own streams.
    """

    def __init__(self, rng: np.random.Generator | None = None):
        self._nodes: list[Node] = []
        self._live: list[NodeId] = []  # sorted insertion order; index map below
        self._live_index: dict[NodeId, int] = {}
        self._rng = rng if rng is not None else np.random.default_rng()

    # -- population management ------------------------------------------------

    def create_node(self, birth_cycle: int = 0) -> Node:
        """Allocate a new live node with the next dense id."""
        node = Node(len(self._nodes), birth_cycle=birth_cycle)
        self._nodes.append(node)
        self._live_index[node.node_id] = len(self._live)
        self._live.append(node.node_id)
        return node

    def populate(self, count: int, factory: Callable[[Node], None] | None = None) -> list[Node]:
        """Create ``count`` nodes, optionally initializing each via ``factory``.

        ``factory`` receives the freshly created node and is expected to
        attach protocols; see :class:`repro.simulator.churn.NodeFactory`.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        created = []
        for _ in range(count):
            node = self.create_node()
            if factory is not None:
                factory(node)
            created.append(node)
        return created

    def crash(self, node_id: NodeId) -> None:
        """Mark a node dead. Its state is retained but it gets no callbacks.

        Crashing an already-dead node is an error: it indicates the
        caller's bookkeeping diverged from the network's.
        """
        node = self.node(node_id)
        if not node.alive:
            raise SimulationError(f"node {node_id} is already down")
        node.alive = False
        # O(1) removal from the live index: swap with last.
        pos = self._live_index.pop(node_id)
        last = self._live[-1]
        self._live[pos] = last
        self._live.pop()
        if last != node_id:
            self._live_index[last] = pos

    # -- lookup ----------------------------------------------------------------

    def node(self, node_id: NodeId) -> Node:
        """Return the node with ``node_id`` (alive or not)."""
        if not (0 <= node_id < len(self._nodes)):
            raise SimulationError(f"unknown node id {node_id}")
        return self._nodes[node_id]

    def is_alive(self, node_id: NodeId) -> bool:
        """Liveness check without raising for dead nodes."""
        return 0 <= node_id < len(self._nodes) and self._nodes[node_id].alive

    @property
    def size(self) -> int:
        """Total nodes ever created (live + dead)."""
        return len(self._nodes)

    @property
    def live_count(self) -> int:
        """Number of currently live nodes."""
        return len(self._live)

    def live_ids(self) -> list[NodeId]:
        """Snapshot list of live node ids (unspecified order)."""
        return list(self._live)

    def live_nodes(self) -> Iterator[Node]:
        """Iterate over live nodes (snapshot; safe to mutate during)."""
        for nid in list(self._live):
            node = self._nodes[nid]
            if node.alive:
                yield node

    def all_nodes(self) -> Iterator[Node]:
        """Iterate over every node ever created."""
        return iter(self._nodes)

    def neighbor_matrix(self, protocol_name: str = "newscast") -> np.ndarray:
        """Padded ``(size, c)`` neighbor-id matrix of the live overlay.

        Row ``i`` holds node ``i``'s current view entries (``-1``
        padding; dead or protocol-less nodes yield all ``-1`` rows) —
        the same shape :class:`~repro.topology.provider.ViewProvider`
        backends emit, so overlay analysis reads both engines'
        topologies identically.
        """
        rows: dict[int, list[int]] = {}
        width = 1
        for node in self.live_nodes():
            if not node.has_protocol(protocol_name):
                continue
            peers = [int(p) for p in node.protocol(protocol_name).known_peers(node)]  # type: ignore[attr-defined]
            rows[node.node_id] = peers
            width = max(width, len(peers))
        out = np.full((self.size, width), -1, dtype=np.int64)
        for nid, peers in rows.items():
            out[nid, : len(peers)] = peers
        return out

    # -- random selection --------------------------------------------------------

    def random_live_node(self, exclude: NodeId | None = None) -> Node:
        """Uniform random live node, optionally excluding one id.

        This is the *oracle* sampler used by churn and by baselines;
        decentralized protocols must use the peer-sampling service
        instead (they have no global view).
        """
        n = len(self._live)
        if n == 0 or (n == 1 and exclude is not None and self._live[0] == exclude):
            raise SimulationError("no eligible live node to select")
        while True:
            nid = self._live[int(self._rng.integers(n))]
            if nid != exclude:
                return self._nodes[nid]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(size={self.size}, live={self.live_count})"
