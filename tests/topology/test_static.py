"""Tests for static topology builders and their protocol."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.simulator.network import Node
from repro.topology.static import (
    StaticTopologyProtocol,
    complete_graph,
    grid_2d,
    k_regular_random,
    ring_lattice,
    small_world,
    star_graph,
)


def to_nx(adj: dict[int, list[int]]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(adj)
    for i, nbrs in adj.items():
        for j in nbrs:
            g.add_edge(i, j)
    return g


class TestBuilders:
    def test_complete(self):
        adj = complete_graph(5)
        assert all(len(v) == 4 for v in adj.values())
        assert all(i not in adj[i] for i in adj)

    def test_ring_radius1(self):
        adj = ring_lattice(6)
        assert all(len(v) == 2 for v in adj.values())
        assert nx.is_connected(to_nx(adj))

    def test_ring_radius2(self):
        adj = ring_lattice(8, radius=2)
        assert all(len(v) == 4 for v in adj.values())

    def test_tiny_ring(self):
        adj = ring_lattice(2)
        assert adj == {0: [1], 1: [0]}

    def test_star(self):
        adj = star_graph(6, center=0)
        assert len(adj[0]) == 5
        assert all(adj[i] == [0] for i in range(1, 6))

    def test_star_custom_center(self):
        adj = star_graph(4, center=2)
        assert len(adj[2]) == 3
        assert adj[0] == [2]

    def test_star_invalid_center(self):
        with pytest.raises(ValueError):
            star_graph(4, center=4)

    def test_k_regular_random_connectivity(self, rng):
        adj = k_regular_random(40, 4, rng)
        g = to_nx(adj)
        assert nx.is_connected(g)
        # Out-picks are k, symmetrized degree >= k.
        assert all(len(adj[i]) >= 4 for i in adj)

    def test_k_regular_bounds(self, rng):
        with pytest.raises(ValueError):
            k_regular_random(1, 1, rng)
        with pytest.raises(ValueError):
            k_regular_random(5, 5, rng)

    def test_small_world_connected_and_rewired(self, rng):
        adj = small_world(60, 4, 0.3, rng)
        g = to_nx(adj)
        assert nx.is_connected(g)
        lattice = to_nx(ring_lattice(60, 2))
        assert set(g.edges) != set(lattice.edges)  # rewiring happened

    def test_small_world_beta_zero_is_lattice(self, rng):
        adj = small_world(20, 4, 0.0, rng)
        assert set(to_nx(adj).edges) == set(to_nx(ring_lattice(20, 2)).edges)

    def test_small_world_validation(self, rng):
        with pytest.raises(ValueError):
            small_world(10, 3, 0.1, rng)  # odd k
        with pytest.raises(ValueError):
            small_world(4, 4, 0.1, rng)  # n <= k
        with pytest.raises(ValueError):
            small_world(10, 4, 1.5, rng)

    def test_grid_torus_degree(self):
        adj = grid_2d(4, 5, torus=True)
        assert all(len(v) == 4 for v in adj.values())
        assert nx.is_connected(to_nx(adj))

    def test_grid_open_boundary(self):
        adj = grid_2d(3, 3, torus=False)
        corner_deg = len(adj[0])
        center_deg = len(adj[4])
        assert corner_deg == 2
        assert center_deg == 4

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_2d(0, 3)


class TestStaticTopologyProtocol:
    def test_sampling_restricted_to_neighbors(self, rng):
        proto = StaticTopologyProtocol([3, 5, 7])
        node = Node(0)
        for _ in range(60):
            assert proto.sample_peer(node, rng) in (3, 5, 7)

    def test_empty_neighbors(self, rng):
        proto = StaticTopologyProtocol([])
        assert proto.sample_peer(Node(0), rng) is None
        assert proto.known_peers(Node(0)) == []

    def test_deduplication(self):
        proto = StaticTopologyProtocol([1, 1, 2, 2, 3])
        assert proto.neighbors == [1, 2, 3]

    def test_next_cycle_is_noop(self):
        proto = StaticTopologyProtocol([1])
        proto.next_cycle(Node(0), None)  # must not raise
