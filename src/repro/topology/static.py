"""Static overlay topologies.

The paper's architecture section (3.2) lists alternative topology
services: "a random topology used by a gossip protocol ...; a mesh
topology connecting nodes responsible for different partitions ...;
but also a star-shaped topology used in a master-slave approach."
These fixed overlays implement that spectrum and power the topology
ablation (A2): the same coordination and optimization services run
unchanged over any of them, because all expose the
:class:`~repro.topology.sampler.PeerSampler` interface.

A static topology is built once, globally, as an adjacency map; each
node's protocol instance holds only *its own* neighbor list — local
knowledge, as required.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.simulator.protocol import CycleProtocol
from repro.topology.sampler import PeerSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import EngineBase
    from repro.simulator.network import Node, NodeId

__all__ = [
    "StaticTopologyProtocol",
    "complete_graph",
    "ring_lattice",
    "star_graph",
    "k_regular_random",
    "grid_2d",
]


class StaticTopologyProtocol(CycleProtocol, PeerSampler):
    """Per-node fixed neighbor list.

    Parameters
    ----------
    neighbors:
        This node's peers.  May be empty (an isolated slave before its
        master contacts it, for instance).
    """

    PROTOCOL_NAME = "topology"

    def __init__(self, neighbors: Sequence[int]):
        self.neighbors = list(dict.fromkeys(neighbors))  # dedupe, keep order

    def next_cycle(self, node: "Node", engine: "EngineBase") -> None:
        """Static topologies do no periodic work."""

    def sample_peer(self, node: "Node", rng: np.random.Generator) -> "NodeId | None":
        if not self.neighbors:
            return None
        return self.neighbors[int(rng.integers(len(self.neighbors)))]

    def known_peers(self, node: "Node") -> list["NodeId"]:
        return list(self.neighbors)


# -- topology builders -------------------------------------------------------------
#
# Builders return {node_index: [neighbor_indices]} over 0..n-1; the
# experiment maps indices to actual node ids.  All results are
# symmetric (undirected) unless stated.


def complete_graph(n: int) -> dict[int, list[int]]:
    """Everyone knows everyone (the full-information extreme)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return {i: [j for j in range(n) if j != i] for i in range(n)}


def ring_lattice(n: int, radius: int = 1) -> dict[int, list[int]]:
    """Ring where each node links to its ``radius`` nearest on each side."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(n):
        for off in range(1, min(radius, (n - 1) // 2 + 1) + 1):
            for j in ((i + off) % n, (i - off) % n):
                if j != i and j not in adj[i]:
                    adj[i].append(j)
    return adj


def star_graph(n: int, center: int = 0) -> dict[int, list[int]]:
    """Master–slave star: every node links the center; center links all.

    The degenerate centralized architecture the paper argues against —
    kept as the baseline topology for the master–slave comparison.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= center < n):
        raise ValueError("center must be a valid index")
    adj = {i: [center] for i in range(n) if i != center}
    adj[center] = [i for i in range(n) if i != center]
    return adj


def k_regular_random(n: int, k: int, rng: np.random.Generator) -> dict[int, list[int]]:
    """Random graph where each node draws ``k`` distinct out-neighbors.

    The union (symmetrized) digraph approximates NEWSCAST's steady
    state without its dynamics — the "frozen random overlay" control
    in the topology ablation.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (1 <= k <= n - 1):
        raise ValueError("require 1 <= k <= n-1")
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(n):
        others = [j for j in range(n) if j != i]
        picks = rng.choice(len(others), size=k, replace=False)
        for p in np.atleast_1d(picks):
            j = others[int(p)]
            if j not in adj[i]:
                adj[i].append(j)
            if i not in adj[j]:
                adj[j].append(i)
    return adj


def grid_2d(rows: int, cols: int, torus: bool = True) -> dict[int, list[int]]:
    """2-D grid (optionally toroidal): the paper's "mesh" alternative.

    Node index is row-major: ``i = r·cols + c``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    n = rows * cols
    adj: dict[int, list[int]] = {i: [] for i in range(n)}

    def link(a: int, b: int) -> None:
        if a != b and b not in adj[a]:
            adj[a].append(b)
            adj[b].append(a)

    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                link(i, r * cols + c + 1)
            elif torus and cols > 2:
                link(i, r * cols)
            if r + 1 < rows:
                link(i, (r + 1) * cols + c)
            elif torus and rows > 2:
                link(i, c)
    return adj
