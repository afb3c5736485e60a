"""Tests for metrics collection and node assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coordination import CoordinationProtocol
from repro.core.metrics import (
    GlobalQualityObserver,
    MessageTally,
    estimate_overhead_bytes,
    global_best,
    total_evaluations,
)
from repro.core.node import OptimizationNodeSpec, build_optimization_node
from repro.functions.suite import Sphere
from repro.simulator.engine import CycleDrivenEngine
from repro.simulator.network import Network
from repro.topology.newscast import bootstrap_views
from repro.topology.static import StaticTopologyProtocol
from repro.utils.config import CoordinationConfig, NewscastConfig, PSOConfig
from repro.utils.rng import SeedSequenceTree


def build_framework_network(n=6, budget=200, evals_per_cycle=4, topology_factory=None):
    tree = SeedSequenceTree(55)
    spec = OptimizationNodeSpec(
        function=Sphere(4),
        pso=PSOConfig(particles=4),
        newscast=NewscastConfig(view_size=8),
        coordination=CoordinationConfig(),
        rng_tree=tree,
        evals_per_cycle=evals_per_cycle,
        budget_per_node=budget,
        topology_factory=topology_factory,
    )
    net = Network(rng=tree.rng("network"))
    net.populate(n, factory=lambda node: build_optimization_node(node, spec))
    if topology_factory is None:
        bootstrap_views(net, tree.rng("bootstrap"))
    engine = CycleDrivenEngine(net, rng=tree.rng("engine"))
    return net, engine, spec


class TestNodeAssembly:
    def test_three_services_attached_in_order(self):
        net, _, _ = build_framework_network()
        names = net.node(0).protocol_names()
        assert names == ["newscast", "pso", "coordination"]

    def test_custom_topology_used_by_coordination(self):
        factory = lambda nid: ("topology", StaticTopologyProtocol([0]))
        net, _, _ = build_framework_network(topology_factory=factory)
        node = net.node(1)
        assert node.has_protocol("topology")
        assert not node.has_protocol("newscast")
        coord: CoordinationProtocol = node.protocol("coordination")
        assert coord.topology_protocol == "topology"

    def test_nodes_have_independent_streams(self):
        net, _, _ = build_framework_network()
        p0 = net.node(0).protocol("pso").service.swarm.state.positions
        p1 = net.node(1).protocol("pso").service.swarm.state.positions
        assert not np.array_equal(p0, p1)

    def test_spec_is_a_node_factory(self):
        net, engine, spec = build_framework_network()
        joiner = net.create_node()
        spec(joiner, engine)
        assert joiner.protocol_names() == ["newscast", "pso", "coordination"]


class TestGlobalMetrics:
    def test_global_best_tracks_minimum(self):
        net, engine, _ = build_framework_network()
        assert global_best(net) == float("inf")
        engine.run(2)
        best = global_best(net)
        node_bests = [
            net.node(i).protocol("pso").service.current_best().value
            for i in range(6)
        ]
        assert best == pytest.approx(min(node_bests))

    def test_total_evaluations_counts_dead_nodes(self):
        net, engine, _ = build_framework_network()
        engine.run(3)
        before = total_evaluations(net)
        net.crash(0)
        assert total_evaluations(net) == before

    def test_quality_observer_monotone_and_threshold(self):
        net, engine, _ = build_framework_network(budget=10_000)
        obs = GlobalQualityObserver(threshold=1e3, record_history=True)
        engine.add_observer(obs)
        engine.run(200)
        assert obs.threshold_cycle is not None
        assert engine.stop_reason == "threshold"
        bests = [h.best_value for h in obs.history]
        assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))

    def test_observer_invalid_threshold(self):
        with pytest.raises(ValueError):
            GlobalQualityObserver(threshold=0.0)

    def test_message_tally(self):
        net, engine, _ = build_framework_network()
        engine.run(5)
        tally = MessageTally.collect(engine)
        assert tally.newscast_exchanges > 0
        assert tally.coordination_messages > 0
        d = tally.as_dict()
        assert d["newscast_exchanges"] == tally.newscast_exchanges


class TestOverheadEstimate:
    def test_paper_magnitudes(self):
        """The paper claims 'a few bytes per second' per node; our
        estimate with its parameters (c=20, 10-D, 10s cycles) must
        land in tens of bytes/s."""
        est = estimate_overhead_bytes(view_size=20, dimension=10)
        assert est["newscast_message_bytes"] == pytest.approx(280.0)
        assert 10.0 < est["total_bytes_per_second"] < 100.0

    def test_slower_cycles_less_bandwidth(self):
        fast = estimate_overhead_bytes(20, 10, 10.0, 10.0)
        slow = estimate_overhead_bytes(20, 10, 60.0, 60.0)
        assert slow["total_bytes_per_second"] < fast["total_bytes_per_second"]

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_overhead_bytes(0, 10)
        with pytest.raises(ValueError):
            estimate_overhead_bytes(20, 10, newscast_cycle_seconds=0.0)
