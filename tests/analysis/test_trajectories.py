"""Tests for convergence-trajectory analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.trajectories import (
    align_curves,
    crossover_budget,
    log_slope,
    quality_curve,
)
from repro.core.metrics import QualitySample
from repro.scenario import Scenario, Session


def synthetic_history(values, evals_per_cycle=10):
    return [
        QualitySample(cycle=i, evaluations=(i + 1) * evals_per_cycle, best_value=v)
        for i, v in enumerate(values)
    ]


class TestQualityCurve:
    def test_extraction(self):
        hist = synthetic_history([5.0, 3.0, 1.0])
        evals, best = quality_curve(hist)
        assert np.array_equal(evals, [10, 20, 30])
        assert np.array_equal(best, [5.0, 3.0, 1.0])

    def test_empty(self):
        evals, best = quality_curve([])
        assert evals.size == 0

    def test_real_run_curve_monotone(self):
        cfg = Scenario(
            function="sphere", nodes=4, particles_per_node=4,
            total_evaluations=2000, gossip_cycle=4, seed=3,
        )
        result = Session(cfg.with_(record_history=True)).run_one(0)
        evals, best = quality_curve(result.history)
        assert np.all(np.diff(evals) > 0)
        assert np.all(np.diff(best) <= 1e-15)


class TestAlignCurves:
    def test_staircase_semantics(self):
        curve = (np.array([10.0, 20.0, 30.0]), np.array([5.0, 3.0, 1.0]))
        grid, values = align_curves([curve], grid=np.array([5.0, 10.0, 25.0, 30.0]))
        assert values[0, 0] == np.inf  # before first sample
        assert values[0, 1] == 5.0
        assert values[0, 2] == 3.0
        assert values[0, 3] == 1.0

    def test_default_grid_covers_shortest(self):
        a = (np.array([10.0, 100.0]), np.array([2.0, 1.0]))
        b = (np.array([10.0, 50.0]), np.array([3.0, 2.0]))
        grid, values = align_curves([a, b], points=5)
        assert grid[-1] == 50.0
        assert values.shape == (2, 5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            align_curves([])


class TestLogSlope:
    def test_exponential_decay_rate(self):
        evals = np.arange(0, 5000, 100, dtype=float)
        best = 10.0 ** (-evals / 1000.0)  # exactly 1 decade per 1000
        assert log_slope(evals, best, tail_fraction=1.0) == pytest.approx(-1.0, rel=1e-6)

    def test_stalled_curve_slope_zero(self):
        evals = np.arange(0, 3000, 100, dtype=float)
        best = np.full(evals.size, 0.5)
        assert log_slope(evals, best) == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_slope(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            log_slope(np.arange(10.0), np.ones(10), tail_fraction=0.0)


class TestCrossover:
    def test_crossover_detected(self):
        grid = np.array([0.0, 100.0, 200.0, 300.0])
        # A starts worse, ends better.
        a = np.array([[1e2, 1e0, 1e-4, 1e-8]])
        b = np.array([[1e1, 1e-1, 1e-2, 1e-3]])
        cross = crossover_budget(grid, a, b)
        assert cross == 200.0

    def test_a_leads_throughout(self):
        grid = np.array([0.0, 100.0])
        a = np.array([[1e-3, 1e-6]])
        b = np.array([[1e0, 1e-1]])
        assert crossover_budget(grid, a, b) == 0.0

    def test_never_crosses(self):
        grid = np.array([0.0, 100.0])
        a = np.array([[1e0, 1e-1]])
        b = np.array([[1e-3, 1e-6]])
        assert crossover_budget(grid, a, b) is None

    def test_small_vs_large_swarm_crossover_exists(self):
        """The k trade-off made measurable: a small swarm converges
        deeper per evaluation late, a large swarm explores better
        early — their mean curves cross."""
        def curves(k, reps=3):
            out = []
            for rep in range(reps):
                cfg = Scenario(
                    function="sphere", nodes=4, particles_per_node=k,
                    total_evaluations=4 * 1500, gossip_cycle=k, seed=17,
                )
                res = Session(cfg.with_(record_history=True)).run_one(rep)
                out.append(quality_curve(res.history))
            return out

        small = curves(4)
        large = curves(32)
        grid = np.linspace(200, 5500, 25)
        _, small_vals = align_curves(small, grid=grid)
        _, large_vals = align_curves(large, grid=grid)
        # Large-k leads at the very start (more initial samples)...
        # small-k must overtake at some budget.
        cross = crossover_budget(grid, small_vals, large_vals)
        assert cross is not None
