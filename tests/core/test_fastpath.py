"""Fast/reference engine equivalence: the fastpath contract.

Three tiers, matching the guarantees documented in
:mod:`repro.core.fastpath`:

* **bit-identity** where gossip cannot reorder information flow
  mid-cycle (``n = 1`` through the public API; any ``n`` with gossip
  disabled) — trajectories, per-node SoA rows, and RunResult fields
  must match the reference engine exactly at ``r = k``;
* **statistical equivalence** everywhere else (``r ≠ k``, churn
  on/off, every topology sampler) — final-quality distributions must
  overlap;
* **schema/semantics preservation** — budgets, thresholds, tallies,
  parallel workers behave like the reference engine's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastpath import FastEngine, run_single_fast
from repro.functions.base import available_functions
from repro.pso.swarm import Swarm
from repro.scenario import ExecutionPolicy, Scenario, Session
from repro.topology.sampler import PeerSampler
from repro.utils.config import (
    ChurnConfig,
    CoordinationConfig,
    ExperimentConfig,
    PSOConfig,
)
from repro.utils.rng import SeedSequenceTree


class IsolatedSampler(PeerSampler):
    """A topology where nobody knows anybody: gossip never fires."""

    def sample_peer(self, node, rng):
        return None

    def known_peers(self, node):
        return []


def lift(cfg: ExperimentConfig, **fields) -> Scenario:
    """The scenario with ``cfg``'s knobs (same field names) plus ``fields``."""
    return Scenario(**vars(cfg), **fields)


def isolated_topology(nid):
    return ("topology", IsolatedSampler())


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        function="sphere",
        nodes=12,
        particles_per_node=8,
        total_evaluations=12 * 8 * 10,
        gossip_cycle=8,
        seed=17,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def history_tuples(result):
    return [(h.cycle, h.evaluations, h.best_value) for h in result.history]


def drawn(engine: FastEngine, live: np.ndarray, stream: bool = False) -> np.ndarray:
    """The ``(nl, 2, 8, d)`` draws ``_chunk_draws`` yields for ``live``, joined."""
    return np.concatenate([draws.copy() for _, draws
                           in engine._chunk_draws(live, None, 8, 0, stream)])


class TestTrajectoryIdentity:
    """Same-seed bit-identity of the fast path at r = k."""

    def test_single_node_identical_through_public_api(self):
        cfg = small_config(nodes=1, total_evaluations=16 * 25,
                           particles_per_node=16, gossip_cycle=16)
        ref = Session(lift(cfg, record_history=True)).run_one(0)
        fast = Session(lift(cfg, engine="fast", record_history=True)).run_one(0)
        assert ref.best_value == fast.best_value
        assert ref.cycles == fast.cycles
        assert ref.stop_reason == fast.stop_reason
        assert ref.total_evaluations == fast.total_evaluations
        assert history_tuples(ref) == history_tuples(fast)

    def test_multinode_gossip_off_identical(self, run_reference_on):
        cfg = small_config(function="rosenbrock", nodes=10)
        ref = run_reference_on(lift(cfg, record_history=True),
                               isolated_topology)
        fast = run_single_fast(cfg, record_history=True, gossip=False)
        assert ref.best_value == fast.best_value
        assert history_tuples(ref) == history_tuples(fast)
        assert ref.node_best_spread == fast.node_best_spread
        assert ref.total_evaluations == fast.total_evaluations

    def test_soa_rows_match_reference_swarms_bitwise(self):
        """Every node's SoA row equals an isolated reference Swarm.

        This pins the strongest claim: the batched kernel consumes each
        node's private stream exactly like Swarm.step_cycle, so state
        — not just summary numbers — is bit-identical at r = k.
        """
        cfg = small_config(nodes=6, particles_per_node=5, gossip_cycle=5,
                           total_evaluations=6 * 5 * 7)
        cycles = 7
        engine = FastEngine(cfg, gossip=False)
        engine.run(cycles)

        tree = SeedSequenceTree(cfg.seed).subtree("rep", 0)
        from repro.functions.base import get_function

        function = get_function(cfg.function)
        for nid in range(cfg.nodes):
            swarm = Swarm(function, cfg.pso, tree.rng("node", nid, "pso"))
            for _ in range(cycles):
                swarm.step_cycle()
            row = engine.soa.node_state(nid)
            assert np.array_equal(row.positions, swarm.state.positions)
            assert np.array_equal(row.velocities, swarm.state.velocities)
            assert np.array_equal(row.pbest_positions, swarm.state.pbest_positions)
            assert np.array_equal(row.pbest_values, swarm.state.pbest_values)
            assert row.best_value == swarm.state.best_value
            assert np.array_equal(row.best_position, swarm.state.best_position)
            assert row.evaluations == swarm.state.evaluations

    @pytest.mark.parametrize("case", ["all_ids", "id_subset"])
    def test_build_matches_per_node_uniform_streams(self, case):
        """The one-call network build equals per-node ``uniform`` draws
        from each node's own stream — non-contiguous id subsets
        included — and leaves every node generator where the per-node
        initializer would."""
        from repro.functions.base import get_function
        from repro.topology.array_views import OracleViews

        cfg = small_config(nodes=9, particles_per_node=4, seed=23,
                           function="zakharov" if case == "all_ids" else "sphere",
                           pso=PSOConfig(particles=4, vmax_fraction=0.5))
        if case == "all_ids":
            ids = np.arange(cfg.nodes)
            engine = FastEngine(cfg, repetition=2, gossip=False)
        else:
            ids = np.array([1, 4, 5, 8])
            engine = FastEngine(cfg, repetition=2, gossip=False,
                                topology=OracleViews(), node_ids=ids)
        tree = SeedSequenceTree(cfg.seed).subtree("rep", 2)
        f = get_function(cfg.function)
        for slot, nid in enumerate(ids.tolist()):
            rng = tree.rng("node", nid, "pso")
            positions = rng.uniform(f.lower, f.upper, size=(4, f.dimension))
            vmax = 0.5 * f.domain_width
            velocities = rng.uniform(-vmax, vmax, size=(4, f.dimension))
            np.testing.assert_array_equal(engine.soa.positions[slot], positions)
            np.testing.assert_array_equal(engine.soa.velocities[slot], velocities)
            assert engine._gens[slot].random() == rng.random()

    def test_repetitions_are_independent_streams(self):
        cfg = small_config(nodes=1, particles_per_node=8, gossip_cycle=8,
                           total_evaluations=8 * 10)
        a = Session(lift(cfg, engine="fast")).run_one(0)
        b = Session(lift(cfg, engine="fast")).run_one(1)
        assert a.best_value != b.best_value
        # And each repetition matches its reference twin.
        assert a.best_value == Session(lift(cfg)).run_one(0).best_value
        assert b.best_value == Session(lift(cfg)).run_one(1).best_value


class TestStatisticalEquivalence:
    """Fast and reference engines draw from the same outcome
    distribution even where trajectories lawfully diverge."""

    REPS = 6

    def _qualities(self, cfg, engine, **kwargs):
        out = []
        for rep in range(self.REPS):
            out.append(
                Session(lift(cfg, engine=engine, **kwargs)).run_one(rep).quality
            )
        return np.asarray(out)

    def _assert_overlap(self, ref, fast):
        """Loose two-sided check: ranges overlap and the log-mean gap
        is far smaller than the spread of qualities PSO produces."""
        assert fast.min() <= ref.max() and ref.min() <= fast.max()
        log_ref = np.log10(np.maximum(ref, 1e-300)).mean()
        log_fast = np.log10(np.maximum(fast, 1e-300)).mean()
        assert abs(log_ref - log_fast) < 1.5

    def test_gossip_r_equals_k(self):
        cfg = small_config(nodes=16, total_evaluations=16 * 8 * 30, seed=23)
        self._assert_overlap(
            self._qualities(cfg, "reference"), self._qualities(cfg, "fast")
        )

    def test_r_not_equal_k(self):
        cfg = small_config(nodes=16, gossip_cycle=5,
                           total_evaluations=16 * 8 * 30, seed=29)
        self._assert_overlap(
            self._qualities(cfg, "reference"), self._qualities(cfg, "fast")
        )

    def test_churn_on(self):
        cfg = small_config(
            nodes=24,
            total_evaluations=24 * 8 * 25,
            seed=31,
            churn=ChurnConfig(crash_rate=0.02, join_rate=0.02, min_population=6),
        )
        self._assert_overlap(
            self._qualities(cfg, "reference"), self._qualities(cfg, "fast")
        )

    def test_quality_still_matches_reference_under_heavy_churn(self):
        cfg = small_config(
            nodes=16,
            total_evaluations=16 * 8 * 20,
            churn=ChurnConfig(crash_rate=0.10, join_rate=0.10, min_population=5),
            seed=89,
        )
        ref = [Session(lift(cfg)).run_one(r).quality for r in range(4)]
        fast = [
            run_single_fast(cfg, repetition=r).quality for r in range(4)
        ]
        log_ref = np.log10(np.maximum(ref, 1e-300)).mean()
        log_fast = np.log10(np.maximum(fast, 1e-300)).mean()
        assert abs(log_ref - log_fast) < 2.0

    @pytest.mark.parametrize("mode", ["push", "pull", "push-pull"])
    def test_coordination_modes(self, mode):
        cfg = small_config(
            nodes=16,
            total_evaluations=16 * 8 * 20,
            seed=37,
            coordination=CoordinationConfig(mode=mode),
        )
        self._assert_overlap(
            self._qualities(cfg, "reference"), self._qualities(cfg, "fast")
        )

    def test_against_ring_topology_sampler(self):
        """The oracle sampler matches NEWSCAST statistically; even a
        constrained static ring lands in the same quality regime."""
        cfg = small_config(nodes=16, total_evaluations=16 * 8 * 20, seed=41)
        ref = self._qualities(cfg, "reference", topology="ring")
        fast = self._qualities(cfg, "fast")
        self._assert_overlap(ref, fast)


class TestRunSemantics:
    """RunResult schema and stop semantics carry over."""

    def test_budget_spent_exactly_with_partial_final_cycle(self):
        # budget 30 per node, r = 8: cycles spend 8+8+8+6.
        cfg = small_config(nodes=5, total_evaluations=5 * 30)
        result = Session(lift(cfg, engine="fast")).run_one(0)
        assert result.stop_reason == "budget"
        assert result.total_evaluations == 5 * 30
        assert result.cycles == 4

    def test_threshold_stop_records_times(self):
        cfg = small_config(
            nodes=8,
            total_evaluations=8 * 8 * 50,
            quality_threshold=1e4,  # sphere starts ~1e4-1e5: trips early
            seed=43,
        )
        result = Session(lift(cfg, engine="fast")).run_one(0)
        assert result.stop_reason == "threshold"
        assert result.reached_threshold
        assert result.threshold_local_time == result.cycles * cfg.gossip_cycle
        assert result.threshold_total_evaluations is not None

    def test_history_monotone_and_messages_tallied(self):
        cfg = small_config(nodes=16, total_evaluations=16 * 8 * 10)
        result = Session(lift(cfg, engine="fast", record_history=True)).run_one(0)
        bests = [h.best_value for h in result.history]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
        tally = result.messages
        assert tally.coordination_messages > 0
        assert 0 < tally.coordination_adoptions <= tally.coordination_messages
        # The fast engine simulates real NEWSCAST view exchanges now:
        # one initiated exchange per live node per cycle.
        assert tally.newscast_exchanges == cfg.nodes * result.cycles
        assert tally.transport_sent == tally.coordination_messages

    def test_oracle_topology_reports_no_view_traffic(self):
        cfg = small_config(nodes=16, total_evaluations=16 * 8 * 10)
        result = run_single_fast(cfg, topology="oracle")
        assert result.messages.newscast_exchanges == 0
        assert result.messages.coordination_messages > 0

    def test_gossip_tightens_consensus(self):
        cfg = small_config(nodes=24, total_evaluations=24 * 8 * 20, seed=47)
        with_gossip = run_single_fast(cfg)
        without = run_single_fast(cfg, gossip=False)
        assert with_gossip.node_best_spread < without.node_best_spread

    def test_churn_grows_and_shrinks_population(self):
        cfg = small_config(
            nodes=20,
            total_evaluations=20 * 8 * 30,
            churn=ChurnConfig(crash_rate=0.05, join_rate=0.05, min_population=4),
            seed=53,
        )
        engine = FastEngine(cfg)
        engine.run(30)
        assert engine.crashes > 0
        assert engine.joins > 0
        # One SoA row per live node: crashes swap-remove, joins append.
        assert engine.live_count == engine.soa.n
        assert engine.live_count == cfg.nodes + engine.joins - engine.crashes
        # Crashed nodes' evaluations are retired, not lost.
        assert engine.total_evaluations() > int(engine.soa.evaluations.sum())

    def test_min_population_floor_respected(self):
        cfg = small_config(
            nodes=6,
            total_evaluations=6 * 8 * 40,
            churn=ChurnConfig(crash_rate=0.5, min_population=3),
            seed=59,
        )
        engine = FastEngine(cfg)
        engine.run(40)
        assert engine.live_count >= 3


class TestEngineSelectionAPI:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="Scenario.engine"):
            Session(lift(small_config(), engine="warp")).run_one(0)

    def test_fast_rejects_topology_factory(self):
        with pytest.raises(ValueError, match="Scenario.topology"):
            Session(
                lift(small_config(), engine="fast", topology=isolated_topology)
            ).run_one(0)

    def test_run_experiment_fast_parallel_matches_sequential(self):
        cfg = small_config(nodes=8, repetitions=3,
                           total_evaluations=8 * 8 * 8, seed=61)
        seq = Session(lift(cfg, engine="fast")).run()
        par = Session(lift(cfg, engine="fast")).run(
            policy=ExecutionPolicy(workers=2)
        )
        assert [r.best_value for r in seq.records] == [
            r.best_value for r in par.records
        ]
        assert [r.total_evaluations for r in seq.records] == [
            r.total_evaluations for r in par.records
        ]


class TestTopologyProviders:
    """The fast engine runs every named overlay (PR 3 tentpole)."""

    @pytest.mark.parametrize(
        "topology", ["newscast", "cyclon", "ring", "kregular", "star", "oracle"]
    )
    def test_runs_and_finishes_budget(self, topology):
        cfg = small_config(nodes=10, total_evaluations=10 * 8 * 6)
        result = run_single_fast(cfg, topology=topology)
        assert result.stop_reason == "budget"
        assert result.total_evaluations == 10 * 8 * 6

    def test_topology_choice_never_perturbs_node_streams(self):
        """Overlay randomness lives on its own seed branch, so swarm
        trajectories with gossip off are identical whatever overlay
        is configured."""
        cfg = small_config(nodes=6, total_evaluations=6 * 8 * 5)
        results = [
            run_single_fast(cfg, gossip=False, topology=t).best_value
            for t in ("newscast", "cyclon", "ring", "oracle")
        ]
        assert len(set(results)) == 1


class TestBatchedRng:
    """The batched draw regime: reproducible, per-node stable."""

    def test_deterministic_and_statistically_equivalent(self):
        cfg = small_config(nodes=12, total_evaluations=12 * 8 * 20, seed=71)
        a = run_single_fast(cfg, rng_mode="batched")
        b = run_single_fast(cfg, rng_mode="batched")
        assert a.best_value == b.best_value
        strict = run_single_fast(cfg, rng_mode="strict")
        ra = np.log10(max(a.quality, 1e-300))
        rs = np.log10(max(strict.quality, 1e-300))
        assert abs(ra - rs) < 2.0

    def test_per_node_blocks_keyed_by_id(self):
        """A node's draws depend on (seed, cycle, node id), not on the
        rest of the population: with gossip off, node 0's trajectory
        matches between an n=1 and an n=4 run."""
        cfg1 = small_config(nodes=1, total_evaluations=1 * 8 * 5)
        cfg4 = small_config(nodes=4, total_evaluations=4 * 8 * 5)
        e1 = FastEngine(cfg1, gossip=False, rng_mode="batched")
        e4 = FastEngine(cfg4, gossip=False, rng_mode="batched")
        e1.run(5)
        e4.run(5)
        row1 = e1.soa.node_state(0)
        row4 = e4.soa.node_state(0)
        assert np.array_equal(row1.positions, row4.positions)
        assert row1.best_value == row4.best_value

    def test_in_place_block_fill_equals_id_indexed_rows(self):
        """Without churn holes a full sweep streams its draws: each
        block's generator fills one workspace block of rows in place;
        those rows must be the ones the id-indexed path (whole blocks,
        rows picked by node id) hands the same nodes — the short last
        block included."""
        cfg = small_config(nodes=300, total_evaluations=300 * 8 * 2)
        engine = FastEngine(cfg, gossip=False, rng_mode="batched")
        live = np.arange(300)
        by_id = drawn(engine, live)
        blocks = [(rows, draws.copy()) for rows, draws
                  in engine._chunk_draws(live, None, 8, 0, stream=True)]
        assert [draws.shape[0] for _, draws in blocks] == [256, 44]
        for rows, draws in blocks:
            np.testing.assert_array_equal(draws, by_id[rows])

    def test_cohort_draws_are_keyed_by_node_id(self):
        """The cohort event engine shares ``_chunk_draws``: the whole
        population streams its blocks, a strict subset — also once
        crashes have swap-removed rows, so row != id — takes the
        id-indexed rows.  Either way row j is its node id's row of that
        id's block."""
        from repro.core.eventpath import CohortEventEngine
        from repro.deployment.runtime import DeploymentConfig

        engine = CohortEventEngine(
            DeploymentConfig(function="sphere", nodes=300), rng_mode="batched"
        )

        def rows_of(ids):
            out = np.empty((len(ids), 2, 8, engine.soa.d))
            for j, nid in enumerate(ids.tolist()):
                rng = np.random.Generator(np.random.SFC64(
                    engine._tree.seed_sequence(
                        "fastpath", "draws", engine.cycle, 0, nid >> 8
                    )
                ))
                out[j] = rng.random((256, 2, 8, engine.soa.d))[nid & 255]
            return out

        everyone = np.arange(engine.live_count)
        whole = drawn(engine, everyone, stream=True)
        probe = np.array([0, 1, 255, 256, 299])
        np.testing.assert_array_equal(whole[probe], rows_of(probe))
        np.testing.assert_array_equal(drawn(engine, everyone[::3]), whole[::3])

        for nid in (5, 17, 290):
            engine.crash_node(nid)
        joined = engine._join(2)
        ids = engine.live_ids()[::7]
        ids = np.concatenate([ids[~np.isin(ids, joined)], joined])
        rows = engine._slot_of_id[ids]
        assert (rows != ids).any()
        np.testing.assert_array_equal(drawn(engine, rows), rows_of(ids))

    def test_invalid_mode_rejected(self):
        with pytest.raises(Exception, match="rng_mode"):
            FastEngine(small_config(), rng_mode="philox")


class TestUniformBox:
    """A box every coordinate shares clamps against two floats: the
    same clip on the same values, without a d-long bound row."""

    def test_suite_bounds_become_floats(self):
        engine = FastEngine(small_config(function="rastrigin"))
        lower, upper = engine._box
        assert type(lower) is float and type(upper) is float
        assert type(engine._vmax) is float
        assert lower == engine.function.lower[0]
        assert upper == engine.function.upper[0]

    def test_mixed_bounds_stay_arrays(self):
        from repro.core.fastpath import _uniform

        mixed = np.array([-1.0, -2.0])
        assert _uniform(mixed) is mixed
        signed_zeros = np.array([0.0, -0.0])  # equal, not the same bits
        assert _uniform(signed_zeros) is signed_zeros
        assert _uniform(np.full(3, 5.12)) == 5.12


class TestEveryFunction:
    """The one objective a run holds may be any registered function:
    the bit-identity tier holds for each box, not just the sphere's."""

    @pytest.mark.parametrize("name", available_functions())
    def test_gossip_off_identical_to_reference(self, name, run_reference_on):
        cfg = small_config(function=name, nodes=4, particles_per_node=4,
                           gossip_cycle=4, total_evaluations=4 * 4 * 6)
        ref = run_reference_on(lift(cfg, record_history=True),
                               isolated_topology)
        fast = run_single_fast(cfg, record_history=True, gossip=False)
        assert ref.best_value == fast.best_value
        assert history_tuples(ref) == history_tuples(fast)
        assert ref.node_best_spread == fast.node_best_spread
        assert ref.total_evaluations == fast.total_evaluations

    @pytest.mark.parametrize("name", available_functions())
    def test_clamped_rows_match_reference_swarms(self, name):
        """With position clamping on, each SoA row equals an isolated
        reference Swarm on the named function and stays in its box."""
        from repro.functions.base import get_function

        pso = PSOConfig(particles=3, vmax_fraction=1.0, clamp_positions=True)
        cfg = small_config(function=name, nodes=3, particles_per_node=3,
                           gossip_cycle=3, total_evaluations=3 * 3 * 5, pso=pso)
        engine = FastEngine(cfg, gossip=False)
        engine.run(5)
        function = get_function(name)
        tree = SeedSequenceTree(cfg.seed).subtree("rep", 0)
        for nid in range(cfg.nodes):
            swarm = Swarm(function, pso, tree.rng("node", nid, "pso"))
            for _ in range(5):
                swarm.step_cycle()
            row = engine.soa.node_state(nid)
            np.testing.assert_array_equal(row.positions, swarm.state.positions)
            np.testing.assert_array_equal(row.pbest_values,
                                          swarm.state.pbest_values)
            assert row.best_value == swarm.state.best_value
            assert np.all((row.positions >= function.lower)
                          & (row.positions <= function.upper))
