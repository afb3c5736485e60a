"""Tests for the cohort-batched event engine (core/eventpath.py).

The per-node :class:`~repro.deployment.runtime.AsyncRuntime` is the
correctness oracle: the cohort engine must reproduce its quality
trajectories and message tallies within statistical tolerance while
running the same :class:`DeploymentConfig` through the SoA kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.eventpath import CohortEventEngine, default_window
from repro.deployment.runtime import AsyncRuntime, DeploymentConfig
from repro.utils.exceptions import ConfigurationError


def make_config(**overrides) -> DeploymentConfig:
    base = dict(
        function="sphere",
        nodes=12,
        particles_per_node=8,
        budget_per_node=800,
        evals_per_tick=8,
        seed=9,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


class TestBasicExecution:
    def test_budget_exactly_consumed(self):
        result = CohortEventEngine(make_config()).run(until=5000.0)
        assert result.total_evaluations == 12 * 800
        assert result.stop_reason == "budget"

    def test_horizon_stop(self):
        result = CohortEventEngine(
            make_config(budget_per_node=10**6)
        ).run(until=20.0)
        assert result.stop_reason == "horizon"
        assert result.sim_time == pytest.approx(20.0)

    def test_threshold_stop(self):
        result = CohortEventEngine(
            make_config(budget_per_node=50_000, quality_threshold=1e-3)
        ).run(until=50_000.0)
        assert result.stop_reason == "threshold"
        assert result.threshold_time is not None
        assert result.quality <= 1e-3

    def test_history_monotone_at_monitor_times(self):
        cfg = make_config()
        result = CohortEventEngine(cfg).run(until=5000.0)
        times = [t for t, _, _ in result.history]
        assert times == pytest.approx(
            [cfg.monitor_period * (i + 1) for i in range(len(times))]
        )
        finite = [b for _, _, b in result.history if np.isfinite(b)]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(finite, finite[1:]))

    def test_messages_flow(self):
        result = CohortEventEngine(make_config()).run(until=5000.0)
        assert result.messages.coordination_messages > 0
        assert result.messages.newscast_exchanges > 0
        assert result.messages.transport_sent >= (
            result.messages.coordination_messages
            + result.messages.newscast_exchanges
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CohortEventEngine(make_config(), window=0.0)
        with pytest.raises(ConfigurationError):
            CohortEventEngine(make_config(), window=-1.0)
        with pytest.raises(ConfigurationError):
            CohortEventEngine(make_config(), window=float("inf"))
        with pytest.raises(ConfigurationError):
            CohortEventEngine(make_config(), window=float("nan"))
        with pytest.raises(ValueError):
            CohortEventEngine(make_config()).run(until=0.0)

    def test_default_window_is_half_fastest_period(self):
        cfg = make_config(compute_period=2.0, newscast_period=6.0,
                          gossip_period=4.0)
        assert default_window(cfg) == pytest.approx(1.0)
        assert CohortEventEngine(cfg).window == pytest.approx(1.0)

    def test_oversized_window_still_exact_on_budget(self):
        # Timers fire several times per window: the multi-pass loops
        # must still spend exactly the configured budget.
        result = CohortEventEngine(make_config(), window=7.0).run(until=5000.0)
        assert result.total_evaluations == 12 * 800
        assert result.stop_reason == "budget"

    def test_strict_rng_mode_runs(self):
        result = CohortEventEngine(
            make_config(), rng_mode="strict"
        ).run(until=2000.0)
        assert result.total_evaluations == 12 * 800

    def test_batched_rng_mode_runs_and_is_deterministic(self):
        a = CohortEventEngine(make_config(), rng_mode="batched").run(until=2000.0)
        b = CohortEventEngine(make_config(), rng_mode="batched").run(until=2000.0)
        assert a.total_evaluations == 12 * 800
        assert a.best_value == b.best_value

    def test_defaults_are_repetition_zero_strict_rng(self):
        a = CohortEventEngine(
            make_config(), repetition=0, window=None, rng_mode="strict"
        ).run(until=500.0)
        b = CohortEventEngine(make_config()).run(until=500.0)
        assert a.best_value == b.best_value
        assert a.total_evaluations == b.total_evaluations


class TestDeterminism:
    def test_same_seed_identical(self):
        a = CohortEventEngine(make_config()).run(until=3000.0)
        b = CohortEventEngine(make_config()).run(until=3000.0)
        assert a.best_value == b.best_value
        assert a.total_evaluations == b.total_evaluations
        assert a.messages.transport_sent == b.messages.transport_sent

    def test_different_seed_differs(self):
        a = CohortEventEngine(make_config(seed=1)).run(until=3000.0)
        b = CohortEventEngine(make_config(seed=2)).run(until=3000.0)
        assert a.best_value != b.best_value

    def test_repetitions_branch_independently(self):
        a = CohortEventEngine(make_config(), repetition=0).run(until=1000.0)
        b = CohortEventEngine(make_config(), repetition=1).run(until=1000.0)
        assert a.best_value != b.best_value


class TestChurnAndLoss:
    def test_poisson_churn_runs(self):
        result = CohortEventEngine(
            make_config(nodes=24, crash_rate=0.05, join_rate=0.05,
                        min_population=6, budget_per_node=2000)
        ).run(until=400.0)
        assert result.crashes > 0
        assert result.joins > 0
        assert np.isfinite(result.quality)

    def test_population_floor_respected(self):
        engine = CohortEventEngine(
            make_config(nodes=8, crash_rate=1.0, min_population=3,
                        budget_per_node=10**6)
        )
        engine.run(until=100.0)
        assert engine.live_count >= 3

    def test_runs_under_message_loss(self):
        lossless = CohortEventEngine(make_config()).run(until=5000.0)
        lossy = CohortEventEngine(make_config(loss_rate=0.3)).run(until=5000.0)
        # Loss slows diffusion, not computation (paper Sec. 3.3.4).
        assert lossy.total_evaluations == lossless.total_evaluations
        assert np.isfinite(lossy.quality)


class TestAsyncEquivalence:
    """The pinned suite: cohort batching must not change the physics.

    Medians over seeds keep these robust; the tolerances are far
    tighter than the regime gaps the experiments measure (configuration
    changes move these quantities by orders of magnitude).
    """

    SEEDS = (1, 2, 3)
    HORIZON = 2000.0

    def _pair(self, seed: int, **overrides):
        base = dict(nodes=16, budget_per_node=1000, seed=seed)
        base.update(overrides)
        cfg = make_config(**base)
        ref = AsyncRuntime(cfg).run(until=self.HORIZON)
        fast = CohortEventEngine(cfg).run(until=self.HORIZON)
        return ref, fast

    @staticmethod
    def _logq(value: float) -> float:
        return float(np.log10(max(value, 1e-300)))

    def test_quality_trajectories_match(self):
        ref_final, fast_final = [], []
        ref_mid, fast_mid = [], []
        for seed in self.SEEDS:
            ref, fast = self._pair(seed)
            assert ref.stop_reason == fast.stop_reason == "budget"
            assert ref.total_evaluations == fast.total_evaluations
            ref_final.append(self._logq(ref.quality))
            fast_final.append(self._logq(fast.quality))
            # Mid-run sample: best value at the same monitor instant.
            shared = min(len(ref.history), len(fast.history))
            mid = shared // 2
            assert ref.history[mid][0] == pytest.approx(fast.history[mid][0])
            ref_mid.append(self._logq(ref.history[mid][2]))
            fast_mid.append(self._logq(fast.history[mid][2]))
        assert abs(np.median(ref_final) - np.median(fast_final)) < 3.0
        assert abs(np.median(ref_mid) - np.median(fast_mid)) < 3.0

    def test_message_tallies_match(self):
        totals = {"ref": {}, "fast": {}}
        for seed in self.SEEDS:
            ref, fast = self._pair(seed)
            for key, res in (("ref", ref), ("fast", fast)):
                for name, count in res.messages.as_dict().items():
                    totals[key][name] = totals[key].get(name, 0) + count
        for name in ("newscast_exchanges", "coordination_messages",
                     "coordination_adoptions", "transport_sent"):
            ref_n, fast_n = totals["ref"][name], totals["fast"][name]
            assert ref_n > 0, name
            ratio = fast_n / ref_n
            assert 0.6 < ratio < 1.67, (name, ref_n, fast_n)

    def test_churn_counts_match(self):
        ref_events, fast_events = [], []
        for seed in self.SEEDS:
            ref, fast = self._pair(
                seed, nodes=24, crash_rate=0.02, join_rate=0.02,
                min_population=6, budget_per_node=4000,
            )
            ref_events.append(ref.crashes + ref.joins)
            fast_events.append(fast.crashes + fast.joins)
        # Same Poisson process, independent draws: compare totals.
        ref_total, fast_total = sum(ref_events), sum(fast_events)
        assert ref_total > 0 and fast_total > 0
        assert 0.5 < fast_total / ref_total < 2.0
