"""The view-provider abstraction: one topology contract, two backends.

The reference engine stores topology state in per-node protocol
objects (:class:`~repro.topology.views.PartialView` and friends); the
fast engine stores it in matrices, one row per node
(:mod:`~repro.topology.array_views`).  Everything above the topology
layer — the gossip phase, churn hooks, overlay analysis — talks to a
:class:`ViewProvider` and cannot tell the backends apart.

A provider answers four questions about one overlay:

* *dynamics*: :meth:`~ViewProvider.begin_cycle` advances the protocol
  one cycle (view exchanges, shuffles; no-op for static overlays);
* *sampling*: :meth:`~ViewProvider.gossip_targets` yields each live
  node's communication partner for the anti-entropy phase;
* *churn*: :meth:`~ViewProvider.on_join` / :meth:`~ViewProvider.on_crash`
  mirror the object protocols' bootstrap and (absence of) failure
  detection;
* *introspection*: :meth:`~ViewProvider.known_peers` /
  :meth:`~ViewProvider.neighbor_matrix` expose the overlay graph to
  :mod:`repro.topology.analysis` identically for both backends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.network import Network
    from repro.utils.config import ExperimentConfig
    from repro.utils.rng import SeedSequenceTree

__all__ = [
    "ViewProvider",
    "NetworkViewProvider",
    "TopologyPlan",
    "make_array_provider",
    "ARRAY_TOPOLOGIES",
]

#: Topology names the array backend can materialize.
ARRAY_TOPOLOGIES = ("newscast", "cyclon", "ring", "kregular", "star", "oracle")


class ViewProvider(abc.ABC):
    """A source of overlay structure for one whole network.

    The per-node counterpart is
    :class:`~repro.topology.sampler.PeerSampler`: a sampler answers
    for one node from that node's local view, a provider answers for
    the whole population at once — but both expose *only* knowledge
    the underlying protocol legitimately has, which is what keeps the
    fast engine's topology claims honest.
    """

    #: Human-readable overlay name ("newscast", "ring", ...).
    name: str = "provider"

    def attach_kernels(self, backend, workspace) -> None:
        """Adopt the engine's kernel backend and scratch workspace.

        The fast engine calls this once at construction so providers
        with array hot paths (the NEWSCAST/CYCLON view kernels) route
        their merges and gathers through the same
        :class:`~repro.core.kernels.KernelBackend` and reuse the
        engine's :class:`~repro.core.kernels.Workspace` buffers
        instead of allocating per cycle.  Default: ignore — object
        adapters and trivial providers have no array hot path.
        """

    @abc.abstractmethod
    def begin_cycle(
        self, live_ids: np.ndarray, alive: np.ndarray, now: float
    ) -> None:
        """Advance overlay dynamics by one cycle.

        ``alive`` is a boolean array indexed by node id (the transport
        oracle: protocols discover death only by failed exchanges).
        """

    @abc.abstractmethod
    def gossip_targets(
        self, live_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One peer id per live node (``-1`` where a node knows nobody).

        Targets may be dead — a node cannot know — and the caller must
        treat the resulting message as lost.
        """

    @abc.abstractmethod
    def on_join(self, node_id: int, live_ids: np.ndarray, now: float) -> None:
        """Bootstrap a joiner (out-of-band contact, as the paper assumes)."""

    @abc.abstractmethod
    def on_crash(self, node_id: int) -> None:
        """React to a crash (most protocols: not at all — no detector)."""

    @abc.abstractmethod
    def ensure_capacity(self, n_ids: int) -> None:
        """Guarantee storage for node ids up to ``n_ids - 1``."""

    @abc.abstractmethod
    def known_peers(self, node_id: int) -> list[int]:
        """Peer ids in ``node_id``'s current view (analysis hook)."""

    @abc.abstractmethod
    def neighbor_matrix(self) -> np.ndarray:
        """Padded ``(n, c)`` neighbor-id matrix (``-1`` = empty slot)."""


class NetworkViewProvider(ViewProvider):
    """Object-backend adapter: a live :class:`Network` as a provider.

    Wraps the per-node :class:`~repro.topology.sampler.PeerSampler`
    protocols of a reference-engine network so analysis and tests can
    interrogate both engines' overlays through one interface.  The
    engine itself keeps driving the protocols (they advance with the
    cycle loop), so :meth:`begin_cycle` and the churn hooks are
    no-ops here.
    """

    def __init__(self, network: "Network", protocol_name: str = "newscast"):
        self.network = network
        self.protocol_name = protocol_name
        self.name = protocol_name

    def begin_cycle(self, live_ids, alive, now) -> None:
        """The cycle engine advances the object protocols itself."""

    def gossip_targets(self, live_ids, rng) -> np.ndarray:
        out = np.full(len(live_ids), -1, dtype=np.int64)
        for row, nid in enumerate(live_ids):
            node = self.network.node(int(nid))
            if not node.has_protocol(self.protocol_name):
                continue
            sampler = node.protocol(self.protocol_name)
            peer = sampler.sample_peer(node, rng)
            out[row] = -1 if peer is None else int(peer)
        return out

    def on_join(self, node_id, live_ids, now) -> None:
        """Handled by the object protocol's own ``on_join``."""

    def on_crash(self, node_id) -> None:
        """Handled by the network's liveness flip."""

    def ensure_capacity(self, n_ids) -> None:
        """The network allocates node objects itself."""

    def known_peers(self, node_id: int) -> list[int]:
        node = self.network.node(node_id)
        if not node.has_protocol(self.protocol_name):
            return []
        return [int(p) for p in node.protocol(self.protocol_name).known_peers(node)]

    def neighbor_matrix(self) -> np.ndarray:
        return self.network.neighbor_matrix(self.protocol_name)


@dataclass
class TopologyPlan:
    """How to materialize one named topology on the reference engine.

    The session layer builds plans; :func:`repro.core.runner._build_network`
    consumes them: ``per_node`` produces each node's
    ``(protocol_name, PeerSampler)`` attachment (from the repetition's
    seed tree, so array and object backends can derive identical
    random structure), and ``bootstrap`` seeds initial views after the
    population exists.
    """

    name: str
    per_node: Callable[[int, "SeedSequenceTree"], tuple[str, object]]
    bootstrap: Callable[["Network", "SeedSequenceTree"], None] | None = None


def static_adjacency(
    topology: str, n: int, view_size: int, rng: np.random.Generator
) -> tuple[dict[int, list[int]], list[int]]:
    """Adjacency (plus joiner contacts) of a named static overlay.

    Shared by both backends: the reference plan and the array provider
    call this with the same seed-tree stream, so a ``kregular`` sweep
    compares the *same* random graph across engines.
    """
    from repro.topology.static import k_regular_random, ring_lattice, star_graph

    if topology == "ring":
        return ring_lattice(n, radius=2), []
    if topology == "star":
        return star_graph(n, center=0), [0]
    if topology == "kregular":
        if n < 2:
            return {0: []}, []
        k = min(max(1, view_size), n - 1)
        return k_regular_random(n, k, rng), []
    raise ConfigurationError(f"unknown static topology {topology!r}")


def make_array_provider(
    topology: str,
    config: "ExperimentConfig",
    tree: "SeedSequenceTree",
) -> ViewProvider:
    """Materialize a named topology as an array-backed provider.

    ``tree`` is the repetition's seed tree; provider randomness lives
    under its ``("topology", ...)`` branch, so overlay dynamics never
    perturb the per-node optimization streams (the fast engine's
    bit-identity contract survives any topology choice).
    """
    from repro.topology.array_views import (
        CyclonArrayViews,
        NewscastArrayViews,
        OracleViews,
        StaticArrayViews,
    )

    n = config.nodes
    c = config.newscast.view_size
    if topology == "oracle":
        return OracleViews()
    if topology == "newscast":
        provider = NewscastArrayViews(n, c, tree.rng("topology", "newscast"))
        provider.bootstrap(np.arange(n, dtype=np.int64))
        return provider
    if topology == "cyclon":
        provider = CyclonArrayViews(n, c, tree.rng("topology", "cyclon"))
        provider.bootstrap(np.arange(n, dtype=np.int64))
        return provider
    if topology in ("ring", "star", "kregular"):
        adjacency, join_contacts = static_adjacency(
            topology, n, c, tree.rng("topology", topology)
        )
        return StaticArrayViews(
            adjacency,
            tree.rng("topology", topology, "sample"),
            name=topology,
            join_contacts=join_contacts,
        )
    raise ConfigurationError(
        f"unknown array topology {topology!r}; expected one of {ARRAY_TOPOLOGIES}"
    )
