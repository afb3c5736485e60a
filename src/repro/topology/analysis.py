"""Overlay graph extraction and metrics.

NEWSCAST's value rests on graph-theoretic claims (random-graph-like
overlay, connectivity at ``c ≈ 20``, self-repair).  This module turns
a live overlay — from *either* topology backend: a reference-engine
:class:`~repro.simulator.network.Network` of per-node protocol
objects, or a fast-engine
:class:`~repro.topology.provider.ViewProvider` of view matrices —
into :mod:`networkx` graphs and computes the metrics our tests check
against the published behaviour.

networkx is imported by the functions that build or walk a graph, not
by this module: ``import repro`` and every engine run without it
(install the ``analysis`` extra for this module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

    from repro.simulator.network import Network

__all__ = [
    "overlay_digraph",
    "overlay_digraph_from_views",
    "overlay_metrics",
    "overlay_metrics_from_views",
    "path_length_sample",
    "path_length_sample_from_views",
    "OverlayMetrics",
]


def overlay_digraph_from_views(
    neighbor_matrix: np.ndarray,
    live_ids: Iterable[int],
    live_only: bool = True,
) -> nx.DiGraph:
    """Directed overlay from a padded ``(n, c)`` neighbor-id matrix.

    The array-backend counterpart of :func:`overlay_digraph`: row
    ``i`` of ``neighbor_matrix`` holds node ``i``'s view entries
    (``-1`` padding).  Works on anything exposing the
    :meth:`~repro.topology.provider.ViewProvider.neighbor_matrix`
    layout — fast-engine providers and
    :meth:`repro.simulator.network.Network.neighbor_matrix` alike.
    """
    import networkx as nx

    g = nx.DiGraph()
    live = [int(i) for i in live_ids]
    live_set = set(live)
    g.add_nodes_from(live)
    for nid in live:
        if nid >= neighbor_matrix.shape[0]:
            continue
        row = neighbor_matrix[nid]
        for peer in row[row >= 0]:
            peer = int(peer)
            if live_only and peer not in live_set:
                continue
            g.add_edge(nid, peer)
    return g


def overlay_digraph(
    network: "Network",
    protocol_name: str = "newscast",
    live_only: bool = True,
) -> nx.DiGraph:
    """Directed overlay: edge ``p → q`` iff ``q`` is in ``p``'s view.

    Parameters
    ----------
    network:
        The population to inspect.
    protocol_name:
        Name under which the topology protocol is attached; it must
        expose ``known_peers`` (any :class:`~repro.topology.sampler.PeerSampler`).
    live_only:
        Restrict vertices to live nodes; edges pointing at dead nodes
        are kept only if ``live_only`` is false (they represent stale
        view entries, interesting for self-repair analysis).
    """
    import networkx as nx

    g = nx.DiGraph()
    nodes = list(network.live_nodes()) if live_only else list(network.all_nodes())
    live_ids = {nd.node_id for nd in nodes}
    for node in nodes:
        g.add_node(node.node_id)
    for node in nodes:
        if not node.has_protocol(protocol_name):
            continue
        proto = node.protocol(protocol_name)
        for peer in proto.known_peers(node):  # type: ignore[attr-defined]
            if live_only and peer not in live_ids:
                continue
            g.add_edge(node.node_id, peer)
    return g


@dataclass(frozen=True)
class OverlayMetrics:
    """Summary statistics of one overlay snapshot."""

    nodes: int
    edges: int
    weakly_connected: bool
    mean_out_degree: float
    max_in_degree: int
    in_degree_std: float
    clustering: float
    stale_fraction: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form for reports."""
        return {
            "nodes": float(self.nodes),
            "edges": float(self.edges),
            "weakly_connected": float(self.weakly_connected),
            "mean_out_degree": self.mean_out_degree,
            "max_in_degree": float(self.max_in_degree),
            "in_degree_std": self.in_degree_std,
            "clustering": self.clustering,
            "stale_fraction": self.stale_fraction,
        }


def overlay_metrics_from_views(
    neighbor_matrix: np.ndarray,
    live_ids: Iterable[int],
) -> OverlayMetrics:
    """:class:`OverlayMetrics` of an array-backed overlay snapshot.

    Mirrors :func:`overlay_metrics` for
    :class:`~repro.topology.provider.ViewProvider` backends; entries
    pointing outside the live set count as stale.
    """
    live = [int(i) for i in live_ids]
    live_set = set(live)
    total = stale = 0
    for nid in live:
        if nid >= neighbor_matrix.shape[0]:
            continue
        row = neighbor_matrix[nid]
        for peer in row[row >= 0]:
            total += 1
            if int(peer) not in live_set:
                stale += 1
    g = overlay_digraph_from_views(neighbor_matrix, live, live_only=True)
    return _metrics_of(g, stale / total if total else 0.0)


def overlay_metrics(
    network: "Network",
    protocol_name: str = "newscast",
) -> OverlayMetrics:
    """Compute :class:`OverlayMetrics` for the current overlay.

    ``stale_fraction`` is the fraction of view entries pointing at
    dead nodes — the quantity NEWSCAST's self-repair drives to zero a
    few cycles after a crash wave.
    """
    g = overlay_digraph(network, protocol_name, live_only=True)

    # Stale entries: count over raw views, not the live-only graph.
    total_entries = 0
    stale_entries = 0
    for node in network.live_nodes():
        if not node.has_protocol(protocol_name):
            continue
        for peer in node.protocol(protocol_name).known_peers(node):  # type: ignore[attr-defined]
            total_entries += 1
            if not network.is_alive(peer):
                stale_entries += 1
    stale_fraction = stale_entries / total_entries if total_entries else 0.0
    return _metrics_of(g, stale_fraction)


def _metrics_of(g: nx.DiGraph, stale_fraction: float) -> OverlayMetrics:
    """Graph-theoretic summary shared by both overlay backends."""
    import networkx as nx

    n = g.number_of_nodes()
    if n == 0:
        return OverlayMetrics(0, 0, False, 0.0, 0, 0.0, 0.0, 0.0)

    in_degrees = np.array([d for _, d in g.in_degree()], dtype=float)
    out_degrees = np.array([d for _, d in g.out_degree()], dtype=float)
    # Clustering on the undirected projection; exact below 2000 nodes,
    # sampled above to keep snapshots cheap on big overlays.
    und = g.to_undirected()
    if n <= 2000:
        clustering = nx.average_clustering(und) if n > 1 else 0.0
    else:  # pragma: no cover - large-network path
        sample = list(und.nodes)[:500]
        clustering = float(np.mean(list(nx.clustering(und, sample).values())))

    return OverlayMetrics(
        nodes=n,
        edges=g.number_of_edges(),
        weakly_connected=bool(n == 1 or nx.is_weakly_connected(g)),
        mean_out_degree=float(out_degrees.mean()) if n else 0.0,
        max_in_degree=int(in_degrees.max()) if n else 0,
        in_degree_std=float(in_degrees.std()) if n else 0.0,
        clustering=float(clustering),
        stale_fraction=stale_fraction,
    )


def path_length_sample(
    network: "Network",
    protocol_name: str = "newscast",
    pairs: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Mean shortest-path length over sampled node pairs (undirected).

    Returns ``inf`` if any sampled pair is disconnected.  Sampling
    keeps the metric affordable on large overlays; tests use small
    overlays where 200 pairs is effectively exhaustive.
    """
    g = overlay_digraph(network, protocol_name).to_undirected()
    return _path_length(g, pairs, rng)


def path_length_sample_from_views(
    neighbor_matrix: np.ndarray,
    live_ids: Iterable[int],
    pairs: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """:func:`path_length_sample` for array-backed overlays."""
    g = overlay_digraph_from_views(neighbor_matrix, live_ids).to_undirected()
    return _path_length(g, pairs, rng)


def _path_length(
    g: nx.Graph, pairs: int, rng: np.random.Generator | None
) -> float:
    import networkx as nx

    nodes = list(g.nodes)
    if len(nodes) < 2:
        return 0.0
    rng = rng if rng is not None else np.random.default_rng()
    total = 0.0
    for _ in range(pairs):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        try:
            total += nx.shortest_path_length(g, nodes[int(a)], nodes[int(b)])
        except nx.NetworkXNoPath:
            return float("inf")
    return total / pairs
