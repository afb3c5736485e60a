"""Cross-cutting integration tests: determinism and service swapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenario import Scenario, Session
from repro.topology.static import (
    StaticTopologyProtocol,
    complete_graph,
    grid_2d,
    ring_lattice,
)


def make_config(**overrides) -> Scenario:
    base = dict(
        function="rosenbrock",
        nodes=9,
        particles_per_node=4,
        total_evaluations=9 * 400,
        gossip_cycle=4,
        repetitions=2,
        seed=77,
    )
    base.update(overrides)
    return Scenario(**base)


class TestBitReproducibility:
    def test_full_experiment_bit_identical(self):
        a = Session(make_config()).run()
        b = Session(make_config()).run()
        assert [r.best_value for r in a.records] == [r.best_value for r in b.records]
        assert [r.cycles for r in a.records] == [r.cycles for r in b.records]
        assert [r.messages.coordination_messages for r in a.records] == [
            r.messages.coordination_messages for r in b.records
        ]

    def test_churned_run_bit_identical(self):
        from repro.utils.config import ChurnConfig

        cfg = make_config(churn=ChurnConfig(crash_rate=0.02, join_rate=0.02))
        a = Session(cfg).run_one(0)
        b = Session(cfg).run_one(0)
        assert a.best_value == b.best_value
        assert a.total_evaluations == b.total_evaluations

    def test_history_trajectories_identical(self):
        a = Session(make_config(record_history=True)).run_one(0)
        b = Session(make_config(record_history=True)).run_one(0)
        assert [h.best_value for h in a.history] == [h.best_value for h in b.history]


def adjacency_factory(adjacency):
    def factory(node_id):
        return ("topology", StaticTopologyProtocol(adjacency.get(node_id, [])))

    return factory


class TestTopologySubstitutability:
    """The framework's modularity claim: any PeerSampler topology
    drops in without touching solver or coordination."""

    @pytest.mark.parametrize(
        "builder",
        [
            lambda n: complete_graph(n),
            lambda n: ring_lattice(n),
            lambda n: grid_2d(3, 3, torus=True),
        ],
        ids=["complete", "ring", "grid"],
    )
    def test_static_topologies_run_and_converge(self, builder, run_reference_on):
        cfg = make_config(function="sphere")
        factory = adjacency_factory(builder(cfg.nodes))
        qualities = [run_reference_on(cfg, factory, rep).quality
                     for rep in range(cfg.repetitions)]
        assert all(np.isfinite(q) for q in qualities)
        assert np.mean(qualities) < 1e4  # better than random

    def test_denser_topology_no_worse_diffusion(self, run_reference_on):
        """Complete graph diffuses at least as well as a sparse ring:
        final per-node spread should not be larger."""
        cfg = make_config(function="sphere", repetitions=1)
        ring = run_reference_on(cfg, adjacency_factory(ring_lattice(cfg.nodes)))
        full = run_reference_on(cfg, adjacency_factory(complete_graph(cfg.nodes)))
        assert full.node_best_spread <= ring.node_best_spread + 1e-12


class TestCoordinationModes:
    @pytest.mark.parametrize("mode", ["push", "pull", "push-pull"])
    def test_all_modes_complete_budget(self, mode):
        from repro.utils.config import CoordinationConfig

        cfg = make_config(coordination=CoordinationConfig(mode=mode))
        result = Session(cfg).run_one(0)
        assert result.stop_reason == "budget"
        assert result.total_evaluations == cfg.evaluations_per_node * cfg.nodes

    def test_push_pull_diffuses_at_least_as_well_as_push(self):
        from repro.utils.config import CoordinationConfig

        spreads = {}
        for mode in ("push", "push-pull"):
            cfg = make_config(
                function="sphere",
                repetitions=1,
                coordination=CoordinationConfig(mode=mode),
            )
            spreads[mode] = Session(cfg).run_one(0).node_best_spread
        assert spreads["push-pull"] <= spreads["push"] + 1e-12


class TestMultiFunctionEndToEnd:
    @pytest.mark.parametrize(
        "function",
        ["f2", "zakharov", "rosenbrock", "sphere", "schaffer", "griewank"],
    )
    def test_every_paper_function_runs(self, function):
        cfg = make_config(function=function, repetitions=1)
        result = Session(cfg).run_one(0)
        assert np.isfinite(result.quality)
        assert result.quality >= 0.0
        assert result.total_evaluations == cfg.evaluations_per_node * cfg.nodes
