"""The velocity bound ``vmax_i = fraction × width_i`` and who applies it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastpath import FastEngine
from repro.functions.suite import Sphere
from repro.pso.swarm import Swarm
from repro.pso.velocity import resolve_vmax
from repro.utils.config import ExperimentConfig, PSOConfig


class TestResolveVmax:
    def test_none_is_unclamped(self):
        assert resolve_vmax(Sphere(2), None) is None

    def test_fraction_of_each_width(self):
        # Sphere's box is [-100, 100]: width 200 per dimension.
        assert np.array_equal(resolve_vmax(Sphere(3), 0.1), [20.0, 20.0, 20.0])

    def test_full_width(self):
        assert np.array_equal(resolve_vmax(Sphere(2), 1.0), [200.0, 200.0])

    def test_one_bound_per_dimension(self):
        assert resolve_vmax(Sphere(5), 0.5).shape == (5,)

    @pytest.mark.parametrize("fraction", [0.0, -1.0], ids=["zero", "negative"])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(ValueError, match="fraction must be > 0"):
            resolve_vmax(Sphere(2), fraction)


class TestEnginesApplyIt:
    def test_swarm_speeds_never_exceed_the_bound(self):
        swarm = Swarm(Sphere(2), PSOConfig(particles=6, vmax_fraction=0.01),
                      np.random.default_rng(5))
        for _ in range(5):
            swarm.step_cycle()
            assert np.all(np.abs(swarm.state.velocities) <= 2.0)

    def test_unclamped_swarm_keeps_no_bound(self):
        swarm = Swarm(Sphere(2), PSOConfig(particles=6, vmax_fraction=None),
                      np.random.default_rng(5))
        assert swarm._vmax is None

    def test_reference_and_fast_engine_share_the_bound(self):
        """One source for the bound: the two engines cannot disagree."""
        config = ExperimentConfig(function="sphere", nodes=2, particles_per_node=4,
                                  total_evaluations=64, gossip_cycle=4,
                                  pso=PSOConfig(vmax_fraction=0.25))
        engine = FastEngine(config)
        swarm = Swarm(engine.function, config.pso, np.random.default_rng(0))
        assert np.array_equal(np.broadcast_to(engine._vmax, swarm._vmax.shape),
                              swarm._vmax)
        assert np.array_equal(swarm._vmax, resolve_vmax(engine.function, 0.25))
