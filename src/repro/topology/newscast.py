"""NEWSCAST: gossip-based peer sampling (paper Sec. 3.3.1).

Protocol, per cycle, at every node ``p``:

1. select a uniform random peer ``q`` from ``p``'s partial view;
2. refresh ``p``'s own descriptor to the current logical time;
3. push–pull **view exchange**: ``p`` and ``q`` send each other their
   views plus their fresh self-descriptors, and each merges — keeping
   the ``c`` freshest distinct entries, never their own.

Emergent properties (validated by our tests against the published
claims in Jelasity et al. and the paper):

* the overlay approximates a random digraph with out-degree ``c``;
* views are uniform-ish samples of the population (peer sampling);
* the undirected overlay is connected w.h.p. for ``c ≈ 20``;
* crashed nodes stop refreshing their descriptor, so their entries
  age out of all views — self-repair with no failure detector.

Implementation notes
--------------------

The exchange is implemented as a *symmetric atomic* operation between
the two protocol instances (PeerSim's cycle-driven shortcut): both
sides compute their merge from consistent snapshots.  When the engine
runs over a lossy transport, the initiator-side merge is skipped on
drop — see :meth:`NewscastProtocol.next_cycle`.

A node with an empty view (fresh joiner whose bootstrap contact died)
stays silent until someone's exchange reaches it; experiments bootstrap
views via :func:`bootstrap_views`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.simulator.protocol import CycleProtocol
from repro.simulator import trace as trace_mod
from repro.topology.sampler import PeerSampler
from repro.topology.views import NodeDescriptor, PartialView
from repro.utils.config import NewscastConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import EngineBase
    from repro.simulator.network import Network, Node, NodeId

__all__ = ["NewscastProtocol", "bootstrap_views"]


class NewscastProtocol(CycleProtocol, PeerSampler):
    """Per-node NEWSCAST instance.

    Parameters
    ----------
    config:
        View size ``c``.
    rng:
        This node's private stream for peer selection.
    """

    PROTOCOL_NAME = "newscast"

    def __init__(self, config: NewscastConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.view = PartialView(config.view_size)
        self.exchanges_initiated = 0
        self.exchanges_received = 0

    # -- PeerSampler interface -----------------------------------------------------

    def sample_peer(self, node: "Node", rng: np.random.Generator) -> "NodeId | None":
        """Uniform random peer from the current view (or None)."""
        desc = self.view.sample(rng)
        return desc.node_id if desc is not None else None

    def known_peers(self, node: "Node") -> list["NodeId"]:
        return self.view.ids()

    # -- protocol behaviour ----------------------------------------------------------

    def next_cycle(self, node: "Node", engine: "EngineBase") -> None:
        """Initiate one view exchange, as PeerSim's cycle-driven NEWSCAST does."""
        desc = self.view.sample(self.rng)
        if desc is None:
            return  # isolated node; it can only be re-absorbed by others
        peer_id = desc.node_id
        network = engine.network
        now = float(engine.now)

        # Timestamps carry a random sub-cycle fraction.  With integer
        # cycle stamps every exchange in a cycle would tie and the
        # deterministic tie-break would systematically favour one end
        # of the id range, breeding hubs and partitioning the overlay;
        # random fractions make same-cycle freshness unbiased while
        # preserving cross-cycle ordering (fractions stay below 1).
        my_offer = self.view.descriptors() + [
            NodeDescriptor(node.node_id, now + float(self.rng.random()))
        ]

        if not network.is_alive(peer_id):
            # The contact is dead: the exchange silently fails.  We do
            # NOT remove the entry — NEWSCAST has no failure detector;
            # stale entries age out through merges (self-repair).
            trace_mod.emit(engine, "newscast.exchange_failed", node.node_id, peer_id)
            return

        peer_node = network.node(peer_id)
        peer: NewscastProtocol = peer_node.protocol(self.PROTOCOL_NAME)  # type: ignore[assignment]
        their_offer = peer.view.descriptors() + [
            NodeDescriptor(peer_id, now + float(peer.rng.random()))
        ]

        # Symmetric merge from consistent snapshots.
        self.view.merge(their_offer, own_id=node.node_id)
        peer.view.merge(my_offer, own_id=peer_id)
        self.exchanges_initiated += 1
        peer.exchanges_received += 1
        trace_mod.emit(engine, "newscast.exchange", node.node_id, peer_id)

    def on_join(self, node: "Node", engine: "EngineBase") -> None:
        """Bootstrap a joiner's view with one live contact.

        Models the out-of-band bootstrap every P2P system needs (a
        well-known address, a cached contact list…).  The joiner
        learns a single live peer; NEWSCAST mixing does the rest.
        """
        if len(self.view) > 0:
            return
        try:
            contact = engine.network.random_live_node(exclude=node.node_id)
        except Exception:
            return  # nobody to join; stays isolated
        self.view.merge(
            [NodeDescriptor(contact.node_id, float(engine.now))],
            own_id=node.node_id,
        )

    # -- introspection -------------------------------------------------------------

    @property
    def view_size(self) -> int:
        """Current number of entries (≤ configured ``c``)."""
        return len(self.view)


def bootstrap_views(
    network: "Network",
    rng: np.random.Generator,
    protocol_name: str = NewscastProtocol.PROTOCOL_NAME,
    contacts_per_node: int | None = None,
    timestamp: float = 0.0,
) -> None:
    """Seed every live node's view with random contacts.

    Gives each node uniform random peers (≠ itself) — PeerSim's
    ``WireKOut`` initializer.  **The contact count matters**: NEWSCAST
    exchanges can only shuffle knowledge that exists, so a component
    of the initial contact digraph that is closed (no edges in or out)
    stays disconnected forever.  With 1 contact per node the random
    functional graph *does* contain small closed components with
    noticeable probability; with ``c`` contacts per node (the default:
    fill the view) disconnection probability is negligible, matching
    standard PeerSim initialization.

    Parameters
    ----------
    network:
        Population whose live nodes get seeded.
    rng:
        Stream for contact selection (experiment-level, not per-node).
    protocol_name:
        Attachment name of the NEWSCAST protocol on each node.
    contacts_per_node:
        Number of initial contacts per node (≥ 1; capped at n − 1).
        ``None`` fills each node's view to its capacity ``c``.
    timestamp:
        Logical time stamped on the seeded descriptors.
    """
    if contacts_per_node is not None and contacts_per_node < 1:
        raise ValueError("contacts_per_node must be >= 1")
    live = network.live_ids()
    n = len(live)
    if n <= 1:
        return
    live_arr = np.asarray(live)
    for nid in live:
        node = network.node(nid)
        proto: NewscastProtocol = node.protocol(protocol_name)  # type: ignore[assignment]
        wanted = (
            proto.view.capacity if contacts_per_node is None else contacts_per_node
        )
        count = min(wanted, n - 1)
        # Sample distinct contacts ≠ self.
        choices = live_arr[live_arr != nid]
        idx = rng.choice(choices.shape[0], size=count, replace=False)
        descriptors = [
            NodeDescriptor(int(choices[int(i)]), timestamp)
            for i in np.atleast_1d(idx)
        ]
        proto.view.merge(descriptors, own_id=nid)
