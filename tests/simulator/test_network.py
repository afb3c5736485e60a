"""Tests for node/network bookkeeping."""

from __future__ import annotations

import pytest

from repro.simulator.network import Network, Node
from repro.utils.exceptions import SimulationError


class TestNode:
    def test_attach_and_lookup(self):
        node = Node(0)
        proto = object()
        node.attach("p", proto)
        assert node.protocol("p") is proto
        assert node.has_protocol("p")
        assert not node.has_protocol("q")

    def test_attach_duplicate_raises(self):
        node = Node(0)
        node.attach("p", object())
        with pytest.raises(SimulationError):
            node.attach("p", object())

    def test_missing_protocol_raises(self):
        with pytest.raises(SimulationError):
            Node(0).protocol("nope")

    def test_protocol_names_preserve_attachment_order(self):
        node = Node(0)
        for name in ("c", "a", "b"):
            node.attach(name, object())
        assert node.protocol_names() == ["c", "a", "b"]

    def test_birth_cycle(self):
        assert Node(0).birth_cycle == 0
        assert Node(1, birth_cycle=7).birth_cycle == 7


class TestNetworkPopulation:
    def test_create_assigns_dense_ids(self, network):
        nodes = [network.create_node() for _ in range(5)]
        assert [n.node_id for n in nodes] == [0, 1, 2, 3, 4]
        assert network.size == 5
        assert network.live_count == 5

    def test_populate_with_factory(self, network):
        seen = []
        network.populate(3, factory=lambda n: seen.append(n.node_id))
        assert seen == [0, 1, 2]

    def test_populate_negative_raises(self, network):
        with pytest.raises(ValueError):
            network.populate(-1)

    def test_crash_removes_from_live(self, network):
        network.populate(4)
        network.crash(2)
        assert network.live_count == 3
        assert not network.is_alive(2)
        assert 2 not in network.live_ids()
        assert network.size == 4  # node object retained

    def test_crash_twice_raises(self, network):
        network.populate(2)
        network.crash(0)
        with pytest.raises(SimulationError):
            network.crash(0)

    def test_unknown_node_raises(self, network):
        with pytest.raises(SimulationError):
            network.node(99)

    def test_is_alive_out_of_range_false(self, network):
        assert not network.is_alive(99)
        assert not network.is_alive(-1)

    def test_ids_never_reused(self, network):
        network.populate(3)
        network.crash(1)
        new = network.create_node()
        assert new.node_id == 3

    def test_live_nodes_iteration_skips_dead(self, network):
        network.populate(4)
        network.crash(0)
        network.crash(3)
        assert sorted(n.node_id for n in network.live_nodes()) == [1, 2]


class TestNetworkSampling:
    def test_random_live_node_uniformity(self, rng):
        net = Network(rng=rng)
        net.populate(4)
        counts = {i: 0 for i in range(4)}
        for _ in range(4000):
            counts[net.random_live_node().node_id] += 1
        for c in counts.values():
            assert 800 < c < 1200  # ~1000 expected

    def test_random_live_node_exclude(self, rng):
        net = Network(rng=rng)
        net.populate(3)
        for _ in range(100):
            assert net.random_live_node(exclude=1).node_id != 1

    def test_random_live_node_empty_raises(self, network):
        with pytest.raises(SimulationError):
            network.random_live_node()

    def test_random_live_node_only_excluded_raises(self, rng):
        net = Network(rng=rng)
        net.populate(1)
        with pytest.raises(SimulationError):
            net.random_live_node(exclude=0)

    def test_random_live_node_never_returns_dead(self, rng):
        net = Network(rng=rng)
        net.populate(10)
        for i in range(5):
            net.crash(i)
        for _ in range(200):
            assert net.random_live_node().node_id >= 5
