"""Heterogeneous objective maps: grouped batching on the fast engine.

The redesign's proof obligation (ROADMAP's "multi-function batching"):
``Scenario.objective_map`` routes grouped nodes through ``FastEngine``
with one batched evaluation per function group, and the result matches
the reference engine — bit-for-bit where gossip cannot reorder
information flow, statistically otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastpath import FastEngine, run_single_fast
from repro.scenario import Scenario, Session
from repro.topology.sampler import PeerSampler
from repro.utils.config import ChurnConfig

FUNCS = ("sphere", "rastrigin", "levy")


def round_robin_map(n: int) -> dict[int, str]:
    return {i: FUNCS[i % len(FUNCS)] for i in range(n)}


def make(n: int = 6, reps: int = 1, **overrides) -> Scenario:
    base = dict(
        objective_map=round_robin_map(n), nodes=n, particles_per_node=4,
        total_evaluations=n * 4 * 10, gossip_cycle=4, repetitions=reps,
        seed=23,
    )
    base.update(overrides)
    return Scenario(**base)


class IsolatedSampler(PeerSampler):
    """A topology where nobody knows anybody: gossip never fires."""

    def sample_peer(self, node, rng):
        return None

    def known_peers(self, node):
        return []


def isolated_topology(nid):
    return ("topology", IsolatedSampler())


class TestGroupedBatching:
    def test_one_batch_call_per_group_per_chunk(self):
        scenario = make(n=6, gossip_cycle=4)  # r = k: one chunk per cycle
        engine = FastEngine(
            scenario.to_experiment_config(),
            objective_map=scenario.objective_map,
        )
        calls = {name: [] for name in FUNCS}
        for fn in engine._functions:
            original = fn.batch

            def counting(points, _orig=original, _name=fn.NAME):
                calls[_name].append(points.shape[0])
                return _orig(points)

            fn.batch = counting
        engine.run_one_cycle()
        # 6 nodes round-robin over 3 functions -> 2 nodes x 4 particles
        # per group, exactly one batched call each.
        assert calls == {name: [8] for name in FUNCS}

    def test_nodes_optimize_their_own_function(self):
        scenario = make(n=6)
        engine = FastEngine(
            scenario.to_experiment_config(),
            objective_map=scenario.objective_map,
            gossip=False,
        )
        engine.run(10)
        # Each node's pbest values must equal its own function applied
        # to its pbest positions.
        for nid in range(6):
            fn = engine._function_of(nid)
            state = engine.soa.node_state(nid)
            np.testing.assert_allclose(
                fn.batch(state.pbest_positions), state.pbest_values
            )

    def test_group_moves_with_its_row(self):
        """Joiner ``nid`` optimizes ``nid % n``'s function, and a crash's
        swap-remove carries the moved row's group along."""
        scenario = make(
            n=6, churn=ChurnConfig(crash_rate=0.3, join_rate=0.5,
                                   min_population=2),
            total_evaluations=6 * 4 * 30,
        )
        engine = FastEngine(
            scenario.to_experiment_config(),
            objective_map=scenario.objective_map,
        )
        engine.run(10)
        assert engine.joins > 0 and engine.crashes > 0
        ids = engine.live_ids()
        assert (ids != np.arange(ids.size)).any()
        for row, nid in enumerate(ids.tolist()):
            want = FUNCS[nid % 6 % len(FUNCS)]
            assert engine._function_of(nid).NAME == want
            fn = engine._functions[engine._node_group[row]]
            assert fn.NAME == want
            state = engine.soa.node_state(row)
            seen = np.isfinite(state.pbest_values)
            np.testing.assert_allclose(
                fn.batch(state.pbest_positions[seen]), state.pbest_values[seen]
            )


class TestEngineEquivalence:
    def test_gossip_off_bit_identical_to_reference(self, run_reference_on):
        """With gossip silenced, every node is an isolated swarm on its
        own function — the fast path must reproduce the reference
        engine's trajectory bit-for-bit at r = k."""
        scenario = make(n=6, record_history=True)
        ref = run_reference_on(scenario, isolated_topology)
        fast = run_single_fast(
            scenario.to_experiment_config(),
            record_history=True,
            gossip=False,
            objective_map=scenario.objective_map,
        )
        assert ref.best_value == fast.best_value
        assert ref.total_evaluations == fast.total_evaluations
        assert ref.node_best_spread == fast.node_best_spread
        assert [(h.cycle, h.evaluations, h.best_value) for h in ref.history] == [
            (h.cycle, h.evaluations, h.best_value) for h in fast.history
        ]

    def test_fast_matches_reference_statistically(self):
        """Full scenario (gossip on): final-quality distributions of
        the two engines must land in the same regime."""
        scenario = make(n=9, reps=8, total_evaluations=9 * 4 * 25)
        ref = Session(scenario).run()
        fast = Session(scenario.with_(engine="fast")).run()

        def log_med(result):
            return float(
                np.median(np.log10(np.maximum(result.qualities(), 1e-300)))
            )

        assert abs(log_med(ref) - log_med(fast)) < 2.0

    def test_facade_routes_objective_map_to_fast_engine(self):
        scenario = make(n=6, engine="fast")
        record = Session(scenario).run_one(0)
        assert np.isfinite(record.quality)
        assert record.total_evaluations == 6 * 4 * 10

    def test_missing_node_in_map_raises(self):
        from repro.utils.exceptions import ConfigurationError

        cfg = make(n=6).to_experiment_config()
        with pytest.raises(ConfigurationError):
            FastEngine(cfg, objective_map={0: "sphere"})
