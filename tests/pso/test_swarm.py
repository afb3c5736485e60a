"""Tests for the core PSO swarm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.functions.base import get_function
from repro.functions.counting import CountingFunction
from repro.functions.suite import Sphere
from repro.pso.swarm import Swarm, initial_swarm_soa, initial_swarm_state
from repro.utils.config import PSOConfig


def make_swarm(k=8, dim=4, seed=0, **pso_kwargs) -> Swarm:
    return Swarm(
        Sphere(dim),
        PSOConfig(particles=k, **pso_kwargs),
        np.random.default_rng(seed),
    )


class TestInitialization:
    def test_positions_inside_domain(self):
        swarm = make_swarm(k=20)
        f, positions = swarm.function, swarm.state.positions
        assert np.all((positions >= f.lower) & (positions <= f.upper))

    def test_no_evaluations_at_construction(self):
        swarm = make_swarm()
        assert swarm.state.evaluations == 0
        assert swarm.best_value == np.inf
        assert np.all(~np.isfinite(swarm.state.pbest_values))

    def test_velocities_within_vmax(self):
        swarm = make_swarm(k=50, vmax_fraction=0.5)
        width = swarm.function.domain_width
        assert np.all(np.abs(swarm.state.velocities) <= 0.5 * width + 1e-12)

    def test_state_shapes(self):
        swarm = make_swarm(k=7, dim=3)
        st = swarm.state
        assert st.positions.shape == (7, 3)
        assert st.velocities.shape == (7, 3)
        assert st.size == 7
        assert st.dimension == 3


class TestPerParticleStepping:
    def test_one_step_one_evaluation(self):
        f = CountingFunction(Sphere(4))
        swarm = Swarm(f, PSOConfig(particles=3), np.random.default_rng(0))
        swarm.step_particle()
        assert f.evaluations == 1
        assert swarm.state.evaluations == 1

    def test_cursor_round_robin(self):
        swarm = make_swarm(k=3)
        for expected in [1, 2, 0, 1, 2, 0]:
            swarm.step_particle()
            assert swarm.state.cursor == expected

    def test_first_visit_evaluates_without_moving(self):
        swarm = make_swarm(k=2)
        pos_before = swarm.state.positions[0].copy()
        swarm.step_particle()
        assert np.array_equal(swarm.state.positions[0], pos_before)
        assert np.isfinite(swarm.state.pbest_values[0])

    def test_second_visit_moves(self):
        swarm = make_swarm(k=1)
        swarm.step_particle()
        pos_before = swarm.state.positions[0].copy()
        swarm.step_particle()
        assert not np.array_equal(swarm.state.positions[0], pos_before)

    def test_step_evaluations_counts(self):
        swarm = make_swarm(k=4)
        assert swarm.step_evaluations(10) == 10
        assert swarm.state.evaluations == 10

    def test_step_evaluations_stops_at_budget(self):
        """A tripped budget ends the loop early with a clean count —
        no exception, no moved-but-unevaluated particle."""
        f = CountingFunction(Sphere(4), budget=6)
        swarm = Swarm(f, PSOConfig(particles=4), np.random.default_rng(0))
        assert swarm.step_evaluations(10) == 6
        assert f.evaluations == 6
        assert swarm.state.evaluations == 6
        assert swarm.step_evaluations(3) == 0  # budget long gone

    def test_step_evaluations_negative_raises(self):
        with pytest.raises(ValueError):
            make_swarm().step_evaluations(-1)


class TestBestTracking:
    def test_best_monotone_nonincreasing(self):
        swarm = make_swarm(k=6)
        bests = []
        for _ in range(300):
            swarm.step_particle()
            bests.append(swarm.best_value)
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bests, bests[1:]))

    def test_best_is_min_of_pbests_without_injection(self):
        swarm = make_swarm(k=6)
        swarm.step_evaluations(120)
        assert swarm.best_value == pytest.approx(
            float(np.min(swarm.state.pbest_values))
        )

    def test_pbest_never_worse_than_any_visited(self):
        swarm = make_swarm(k=2)
        visited = []
        for _ in range(50):
            visited.append(swarm.step_particle())
        assert swarm.best_value <= min(visited) + 1e-15

    def test_state_invariants_hold_during_run(self):
        swarm = make_swarm(k=5)
        for _ in range(100):
            swarm.step_particle()
            swarm.state.validate()


class TestInjection:
    def test_inject_better_adopted(self):
        swarm = make_swarm(k=2)
        swarm.step_evaluations(4)
        target = np.zeros(4)
        assert swarm.inject_best(target, 1e-30)
        assert swarm.best_value == 1e-30
        assert np.array_equal(swarm.best_position, target)

    def test_inject_worse_rejected(self):
        swarm = make_swarm(k=2)
        swarm.step_evaluations(4)
        before = swarm.best_value
        assert not swarm.inject_best(np.ones(4), before + 1.0)
        assert swarm.best_value == before

    def test_inject_equal_rejected(self):
        """Strictly-better rule: ties do not churn the optimum."""
        swarm = make_swarm(k=2)
        swarm.step_evaluations(4)
        before = swarm.best_value
        pos = swarm.best_position
        assert not swarm.inject_best(pos + 1.0, before)

    def test_inject_does_not_touch_pbests(self):
        swarm = make_swarm(k=3)
        swarm.step_evaluations(6)
        pbv = swarm.state.pbest_values.copy()
        swarm.inject_best(np.zeros(4), 1e-30)
        assert np.array_equal(swarm.state.pbest_values, pbv)

    def test_inject_wrong_shape_raises(self):
        swarm = make_swarm(k=2)
        with pytest.raises(ValueError):
            swarm.inject_best(np.zeros(3), 0.0)

    def test_injected_best_steers_search(self):
        """After injecting a strong optimum, the swarm concentrates
        around it — the social attractor redirect the paper relies on."""
        swarm = make_swarm(k=8, seed=3)
        swarm.step_evaluations(8)
        swarm.inject_best(np.zeros(4), 1e-30)
        for _ in range(40):
            swarm.step_evaluations(8)
        mean_dist = float(np.linalg.norm(swarm.state.positions, axis=1).mean())
        assert mean_dist < 40.0  # domain half-width is 100


class TestSynchronousCycle:
    def test_cycle_costs_k_evaluations(self):
        f = CountingFunction(Sphere(4))
        swarm = Swarm(f, PSOConfig(particles=5), np.random.default_rng(0))
        assert swarm.step_cycle() == 5
        assert f.evaluations == 5

    def test_first_cycle_establishes_pbests(self):
        swarm = make_swarm(k=4)
        swarm.step_cycle()
        assert np.all(np.isfinite(swarm.state.pbest_values))

    def test_sync_converges_on_sphere(self):
        swarm = make_swarm(k=16, seed=1)
        best = swarm.run(16 * 300, synchronous=True)
        assert best < 1e-6

    def test_async_converges_on_sphere(self):
        swarm = make_swarm(k=16, seed=1)
        best = swarm.run(16 * 300, synchronous=False)
        assert best < 1e-6

    def test_run_rounds_down_to_whole_cycles(self):
        f = CountingFunction(Sphere(4))
        swarm = Swarm(f, PSOConfig(particles=8), np.random.default_rng(0))
        swarm.run(20, synchronous=True)  # 2 cycles of 8
        assert f.evaluations == 16

    def test_run_negative_raises(self):
        with pytest.raises(ValueError):
            make_swarm().run(-1)


class TestVelocityClamping:
    def test_velocities_bounded_forever(self):
        swarm = make_swarm(k=6, vmax_fraction=0.25)
        width = swarm.function.domain_width
        for _ in range(200):
            swarm.step_particle()
            assert np.all(np.abs(swarm.state.velocities) <= 0.25 * width + 1e-9)

    def test_unclamped_allowed(self):
        swarm = make_swarm(k=4, vmax_fraction=None)
        swarm.step_evaluations(40)  # must simply not error
        assert swarm.state.evaluations == 40


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a = make_swarm(k=5, seed=9)
        b = make_swarm(k=5, seed=9)
        a.step_evaluations(50)
        b.step_evaluations(50)
        assert np.array_equal(a.state.positions, b.state.positions)
        assert a.best_value == b.best_value

    def test_different_seed_differs(self):
        a = make_swarm(k=5, seed=1)
        b = make_swarm(k=5, seed=2)
        assert not np.array_equal(a.state.positions, b.state.positions)


# -- the batched initializer ----------------------------------------------------


def _uniform_reference(function, config, rng):
    """The per-swarm initializer as it stood before batching.

    Two ``Generator.uniform`` calls — box positions, then ±vmax
    velocities.  Kept here as the arithmetic reference: the batched
    initializer owes it every bit and the same stream position.
    """
    k, d = config.particles, function.dimension
    positions = rng.uniform(function.lower, function.upper, size=(k, d))
    vmax = (config.vmax_fraction or 1.0) * function.domain_width
    velocities = rng.uniform(-vmax, vmax, size=(k, d))
    return positions, velocities


#: Ten-dimensional objectives with different boxes (zakharov's is
#: asymmetric: [-5, 10]).
_BOXES = ("sphere", "rastrigin", "griewank", "ackley", "zakharov")


class TestBatchedInitializer:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(_BOXES),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6,
                       unique=True),
        particles=st.integers(1, 5),
        vmax_fraction=st.sampled_from([None, 0.5, 1.0]),
    )
    def test_equals_per_swarm_initializers_bit_for_bit(
        self, name, seeds, particles, vmax_fraction
    ):
        """One call over n swarms == n per-swarm calls, and every
        generator ends at the same stream position.  ``name`` draws
        the box; ``seeds`` (n = 1 included) stand for arbitrary,
        non-contiguous node streams."""
        config = PSOConfig(particles=particles, vmax_fraction=vmax_fraction)
        function = get_function(name)
        n = len(seeds)
        rngs = [np.random.default_rng(s) for s in seeds]
        soa = initial_swarm_soa(rngs, config, function.lower, function.upper)
        assert soa.n == n and soa.capacity == n
        for i, seed in enumerate(seeds):
            ref_rng = np.random.default_rng(seed)
            positions, velocities = _uniform_reference(function, config, ref_rng)
            single = initial_swarm_state(
                function, config, np.random.default_rng(seed)
            )
            for got in (soa.node_state(i), single):
                np.testing.assert_array_equal(got.positions, positions, strict=True)
                np.testing.assert_array_equal(got.velocities, velocities, strict=True)
                np.testing.assert_array_equal(got.pbest_positions, positions)
                np.testing.assert_array_equal(got.best_position, positions[0])
                assert np.all(np.isposinf(got.pbest_values))
                assert got.best_value == np.inf
                assert got.evaluations == 0 and got.cursor == 0
            assert rngs[i].random() == ref_rng.random()
