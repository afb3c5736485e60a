"""Tests for the baseline optimizers and their comparisons."""

from __future__ import annotations

import numpy as np
import pytest

from repro.functions.base import available_functions, get_function
from repro.pso.swarm import Swarm
from repro.scenario import Scenario, Session
from repro.utils.config import PSOConfig
from repro.utils.rng import SeedSequenceTree

#: The star overlay's center (``topology.static.star_graph`` default).
MASTER_NODE_ID = 0


def make_config(**overrides) -> Scenario:
    base = dict(
        function="sphere",
        nodes=8,
        particles_per_node=8,
        total_evaluations=16_000,
        gossip_cycle=8,
        repetitions=2,
        seed=21,
    )
    base.update(overrides)
    return Scenario(**base)


class TestCentralized:
    def test_converges(self):
        result = Session(make_config(baseline="centralized")).run()
        assert all(q < 1e-3 for q in result.qualities())
        assert result.quality_stats.count == 2

    def test_defaults_to_total_particles(self):
        # n*k = 64 particles; explicit same size must match exactly.
        a = Session(make_config(baseline="centralized")).run()
        b = Session(make_config(baseline="centralized", swarm_size=64)).run()
        assert a.qualities() == b.qualities()

    def test_custom_swarm_size(self):
        result = Session(make_config(baseline="centralized", swarm_size=16)).run()
        assert all(np.isfinite(q) for q in result.qualities())

    def test_invalid_swarm_size(self):
        with pytest.raises(ValueError):
            Session(make_config(baseline="centralized", swarm_size=0)).run()

    def test_deterministic(self):
        a = Session(make_config(baseline="centralized")).run()
        b = Session(make_config(baseline="centralized")).run()
        assert a.qualities() == b.qualities()


class TestIndependent:
    def test_best_of_n_at_most_each_node(self):
        result = Session(make_config(baseline="independent")).run()
        for rep, best in enumerate(result.qualities()):
            assert best == min(result.records[rep].node_qualities)

    def test_shapes(self):
        cfg = make_config(nodes=5, repetitions=3, baseline="independent")
        result = Session(cfg).run()
        assert len(result.qualities()) == 3
        assert all(len(r.node_qualities) == 5 for r in result.records)

    def test_infeasible_budget_raises(self):
        with pytest.raises(ValueError):
            Session(
                make_config(nodes=8, total_evaluations=4, baseline="independent")
            ).run()

    def test_coordination_beats_independence(self):
        """Ablation A3's headline: the coordinated framework matches or
        beats independent multi-start at equal total budget (the
        shared attractor concentrates the search)."""
        cfg = make_config(
            nodes=8, particles_per_node=8, total_evaluations=32_000,
            gossip_cycle=8, repetitions=3,
        )
        coordinated = Session(cfg).run()
        independent = Session(cfg.with_(baseline="independent")).run()
        # Compare medians of log-quality to be robust to outliers.
        coord_q = np.log10(np.maximum(coordinated.qualities(), 1e-300))
        indep_q = np.log10(np.maximum(independent.qualities(), 1e-300))
        assert np.median(coord_q) <= np.median(indep_q) + 0.5


class TestNamedFunction:
    """Both baselines optimise ``scenario.function`` from their
    documented seed branches: ``("centralized", rep)`` for the one big
    swarm, ``("independent", rep, "node", i)`` for node ``i``'s swarm."""

    @pytest.mark.parametrize("name", available_functions())
    def test_centralized_is_one_swarm_on_the_function(self, name):
        scenario = make_config(function=name, nodes=4, particles_per_node=4,
                               total_evaluations=16 * 5, baseline="centralized")
        record = Session(scenario).run_one(1)
        function = get_function(name)
        pso = PSOConfig(particles=16, c1=scenario.pso.c1, c2=scenario.pso.c2,
                        vmax_fraction=scenario.pso.vmax_fraction,
                        inertia=scenario.pso.inertia)
        swarm = Swarm(function, pso,
                      SeedSequenceTree(scenario.seed).rng("centralized", 1))
        best = swarm.run(scenario.total_evaluations,
                         synchronous=scenario.synchronous)
        assert record.best_value == best
        assert record.quality == function.quality(best)
        assert record.total_evaluations == swarm.state.evaluations

    @pytest.mark.parametrize("name", available_functions())
    def test_independent_is_one_swarm_per_node_on_the_function(self, name):
        scenario = make_config(function=name, nodes=3, particles_per_node=4,
                               total_evaluations=3 * 4 * 5, baseline="independent")
        record = Session(scenario).run_one(1)
        function = get_function(name)
        tree = SeedSequenceTree(scenario.seed)
        qualities = [
            function.quality(Swarm(function, scenario.pso, rng).run(
                scenario.evaluations_per_node))
            for rng in tree.rngs(("independent", 1, "node"), range(3))
        ]
        assert record.node_qualities == qualities
        assert record.quality == min(qualities)


class TestMasterSlave:
    def test_star_factory_shapes(self):
        net, _, _ = Session(make_config(nodes=5, topology="star")).build_network()
        assert sorted(net.node(0).protocol("topology").neighbors) == [1, 2, 3, 4]
        assert net.node(3).protocol("topology").neighbors == [MASTER_NODE_ID]

    def test_runs_and_converges(self):
        result = Session(make_config(topology="star")).run()
        assert result.quality_stats.mean < 10.0

    def test_comparable_to_newscast_on_static_network(self):
        """Without churn a star diffuses optima fine — quality within
        a couple of orders of the decentralized run (claim: topology
        choice is about robustness, not raw quality)."""
        cfg = make_config(repetitions=3)
        star = Session(cfg.with_(topology="star")).run()
        newscast = Session(cfg).run()
        star_q = np.median(np.log10(np.maximum(star.qualities(), 1e-300)))
        nc_q = np.median(np.log10(np.maximum(newscast.qualities(), 1e-300)))
        assert abs(star_q - nc_q) < 6.0

    def test_master_crash_stalls_coordination(self):
        """The single point of failure, demonstrated: crash the master
        and slaves stop hearing about remote optima entirely (their
        only contact is gone), while a NEWSCAST network keeps
        diffusing after losing any one node."""
        from repro.simulator.engine import CycleDrivenEngine

        cfg = make_config(
            nodes=6, total_evaluations=60_000, topology="star", seed=5
        )
        net, _, tree = Session(cfg).build_network()
        engine = CycleDrivenEngine(net, rng=tree.rng("engine"))
        engine.run(5)
        net.crash(MASTER_NODE_ID)
        engine.run(5)
        adoptions_before = {
            i: net.node(i).protocol("coordination").adoptions for i in range(1, 6)
        }
        engine.run(20)
        adoptions_after = {
            i: net.node(i).protocol("coordination").adoptions for i in range(1, 6)
        }
        # No slave can adopt anything new: the only route is dead.
        assert adoptions_after == adoptions_before
