"""Fault-injection tests: the paper's robustness claims (Sec. 3.3.4).

"No special provisions are taken to deal with failures. … Nodes may be
subject to churn without affecting the consistency of the overall
computation. … even if a large portion of the network fails, the
computation will end successfully, slowing down proportionally."
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import GlobalQualityObserver, global_best
from repro.core.node import OptimizationNodeSpec, build_optimization_node
from repro.functions.base import get_function
from repro.scenario import Scenario, Session
from repro.simulator.engine import CycleDrivenEngine
from repro.simulator.network import Network
from repro.topology.newscast import bootstrap_views
from repro.utils.config import (
    ChurnConfig,
    CoordinationConfig,
    NewscastConfig,
    PSOConfig,
)
from repro.utils.rng import SeedSequenceTree


def build_running_network(n=24, budget=100_000, seed=44, evals_per_cycle=8):
    tree = SeedSequenceTree(seed)
    spec = OptimizationNodeSpec(
        function=get_function("sphere"),
        pso=PSOConfig(particles=8),
        newscast=NewscastConfig(view_size=12),
        coordination=CoordinationConfig(),
        rng_tree=tree,
        evals_per_cycle=evals_per_cycle,
        budget_per_node=budget,
    )
    net = Network(rng=tree.rng("network"))
    net.populate(n, factory=lambda node: build_optimization_node(node, spec))
    bootstrap_views(net, tree.rng("bootstrap"))
    engine = CycleDrivenEngine(net, rng=tree.rng("engine"))
    return net, engine, spec


class TestMassFailure:
    def test_computation_survives_half_network_crash(self):
        net, engine, _ = build_running_network()
        engine.run(20)
        best_before = global_best(net)
        for nid in range(12):  # kill half
            net.crash(nid)
        engine.run(40)
        best_after = global_best(net)
        assert np.isfinite(best_after)
        assert best_after <= best_before  # survivors keep improving

    def test_survivors_reconverge_on_shared_optimum(self):
        # Small budget so optimization freezes, then extra cycles are
        # pure gossip: survivors must reach exact consensus (while
        # swarms are still improving, a one-cycle diffusion lag keeps
        # per-node bests slightly apart — that is expected, not a bug).
        net, engine, _ = build_running_network(budget=160)
        engine.run(20)  # budget exhausted (20 cycles × 8 evals)
        for nid in range(12):
            net.crash(nid)
        engine.run(30)  # diffusion only
        bests = [
            net.node(nid).protocol("pso").service.current_best().value
            for nid in net.live_ids()
        ]
        assert max(bests) - min(bests) < 1e-12  # consensus restored

    def test_best_never_regresses_during_crashes(self):
        net, engine, _ = build_running_network()
        obs = GlobalQualityObserver()
        engine.add_observer(obs)
        rng = np.random.default_rng(3)
        for wave in range(6):
            engine.run(5)
            live = net.live_ids()
            if len(live) > 6:
                for nid in rng.choice(live, size=2, replace=False):
                    net.crash(int(nid))
        bests = [s.best_value for s in obs.history]
        assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))


class TestJoinersAdopt:
    def test_joiner_receives_optimum_via_gossip(self):
        """Paper: 'as soon as they receive an epidemic message
        containing the swarm optimum … their swarm optimum is
        updated.'"""
        net, engine, spec = build_running_network()
        engine.run(30)
        incumbent_best = global_best(net)

        joiner = net.create_node(birth_cycle=engine.cycle)
        spec(joiner, engine)
        for name in joiner.protocol_names():
            proto = joiner.protocol(name)
            if hasattr(proto, "on_join"):
                proto.on_join(joiner, engine)

        engine.run(25)
        joiner_best = joiner.protocol("pso").service.current_best().value
        # The joiner now knows (at least) the network's incumbent best.
        assert joiner_best <= incumbent_best

    def test_joiner_starts_with_fresh_random_particles(self):
        net, engine, spec = build_running_network()
        engine.run(10)
        joiner = net.create_node(birth_cycle=engine.cycle)
        spec(joiner, engine)
        positions = joiner.protocol("pso").service.swarm.state.positions
        f = get_function("sphere")
        assert np.all((positions >= f.lower) & (positions <= f.upper))
        # Distinct from every existing node's particles.
        for nid in range(5):
            other = net.node(nid).protocol("pso").service.swarm.state.positions
            assert not np.array_equal(positions, other)


class TestContinuousChurn:
    def test_continuous_churn_still_optimizes(self):
        cfg = Scenario(
            function="sphere", nodes=32, particles_per_node=8,
            total_evaluations=32 * 2000, gossip_cycle=8,
            repetitions=1, seed=45,
            churn=ChurnConfig(crash_rate=0.01, join_rate=0.01, min_population=8),
        )
        result = Session(cfg).run_one(0)
        assert result.quality < 1.0  # meaningful progress despite churn

    def test_heavier_churn_degrades_gracefully(self):
        """Slowdown proportional to failures, not collapse: heavy
        crash-only churn still lands within a few orders of magnitude
        of the calm network's quality."""
        qualities = {}
        for rate in (0.0, 0.05):
            cfg = Scenario(
                function="sphere", nodes=32, particles_per_node=8,
                total_evaluations=32 * 1000, gossip_cycle=8,
                repetitions=2, seed=46,
                churn=ChurnConfig(crash_rate=rate, min_population=4),
            )
            result = Session(cfg).run()
            qualities[rate] = np.median(
                np.log10(np.maximum(result.qualities(), 1e-300))
            )
        assert np.isfinite(qualities[0.05])
        # Calm should not be *worse*; churned should not collapse to
        # random-search level (log10 ≈ 4 on sphere).
        assert qualities[0.05] < 4.0
