"""Tests for the asynchronous deployment runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.deployment import AsyncRuntime, DeploymentConfig
from repro.scenario import Scenario, Session
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
        result = AsyncRuntime(make_config()).run(until=5000.0)
        assert result.total_evaluations == 12 * 800
        assert result.stop_reason == "budget"

    def test_quality_sane(self):
        result = AsyncRuntime(make_config()).run(until=5000.0)
        assert 0.0 <= result.quality < 1e4

    def test_horizon_stop(self):
        result = AsyncRuntime(make_config(budget_per_node=10**6)).run(until=20.0)
        assert result.stop_reason == "horizon"
        assert result.sim_time == pytest.approx(20.0)

    def test_threshold_stop(self):
        result = AsyncRuntime(
            make_config(budget_per_node=50_000, quality_threshold=1e-3)
        ).run(until=50_000.0)
        assert result.stop_reason == "threshold"
        assert result.threshold_time is not None
        assert result.quality <= 1e-3

    def test_history_monotone(self):
        result = AsyncRuntime(make_config()).run(until=5000.0)
        bests = [b for _, _, b in result.history]
        finite = [b for b in bests if np.isfinite(b)]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(finite, finite[1:]))

    def test_messages_flow(self):
        result = AsyncRuntime(make_config()).run(until=5000.0)
        assert result.messages.coordination_messages > 0
        assert result.messages.newscast_exchanges > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_config(nodes=0)
        with pytest.raises(ConfigurationError):
            make_config(loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            make_config(latency_min=2.0, latency_max=1.0)
        with pytest.raises(ConfigurationError):
            make_config(compute_period=0.0)
        with pytest.raises(ValueError):
            AsyncRuntime(make_config()).run(until=0.0)

    @pytest.mark.parametrize("field,value", [
        ("compute_period", 0.0),
        ("compute_period", -1.0),
        ("compute_period", float("nan")),
        ("compute_period", float("inf")),
        ("newscast_period", 0.0),
        ("newscast_period", float("nan")),
        ("gossip_period", -2.5),
        ("monitor_period", 0.0),
        ("crash_rate", -0.1),
        ("crash_rate", float("nan")),
        ("join_rate", -1.0),
        ("join_rate", float("inf")),
        ("particles_per_node", 0),
        ("min_population", 0),
        ("quality_threshold", 0.0),
        ("quality_threshold", -1e-3),
        ("quality_threshold", float("nan")),
        ("clock_jitter", float("nan")),
        ("latency_min", float("nan")),
        ("latency_max", float("nan")),
        ("seed", -1),
    ])
    def test_construction_rejects_bad_field_with_clear_message(
        self, field, value
    ):
        # Each of these used to be representable and only blew up (or
        # silently misbehaved) mid-run inside the event heap — NaN
        # timestamps have no heap order, non-positive periods schedule
        # into the past.  Construction must reject them and name the
        # field.
        with pytest.raises(ConfigurationError) as err:
            make_config(**{field: value})
        message = str(err.value)
        assert field in message or f"DeploymentConfig.{field}" in message

    def test_latency_ordering_error_blames_latency_max(self):
        with pytest.raises(ConfigurationError) as err:
            make_config(latency_min=2.0, latency_max=1.0)
        assert "DeploymentConfig.latency_max" in str(err.value)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = AsyncRuntime(make_config()).run(until=3000.0)
        b = AsyncRuntime(make_config()).run(until=3000.0)
        assert a.best_value == b.best_value
        assert a.total_evaluations == b.total_evaluations
        assert a.messages.transport_sent == b.messages.transport_sent

    def test_different_seed_differs(self):
        a = AsyncRuntime(make_config(seed=1)).run(until=3000.0)
        b = AsyncRuntime(make_config(seed=2)).run(until=3000.0)
        assert a.best_value != b.best_value


class TestDegradedNetworks:
    def test_runs_under_message_loss(self):
        lossless = AsyncRuntime(make_config()).run(until=5000.0)
        lossy = AsyncRuntime(make_config(loss_rate=0.3)).run(until=5000.0)
        assert lossy.total_evaluations == lossless.total_evaluations
        # Loss slows diffusion, not computation: quality stays in a
        # sane band (paper Sec. 3.3.4).
        assert np.isfinite(lossy.quality)

    def test_high_latency_tolerated(self):
        result = AsyncRuntime(
            make_config(latency_min=2.0, latency_max=8.0)
        ).run(until=5000.0)
        assert result.stop_reason == "budget"
        assert np.isfinite(result.quality)


class TestChurnEvents:
    def test_poisson_churn_runs(self):
        result = AsyncRuntime(
            make_config(
                nodes=24, crash_rate=0.05, join_rate=0.05, min_population=6,
                budget_per_node=2000,
            )
        ).run(until=400.0)
        assert result.crashes > 0
        assert result.joins > 0
        assert np.isfinite(result.quality)

    def test_population_floor_respected(self):
        deployment = AsyncRuntime(
            make_config(nodes=8, crash_rate=1.0, min_population=3,
                        budget_per_node=10**6)
        )
        deployment.run(until=100.0)
        assert deployment.network.live_count >= 3


class TestCycleEquivalence:
    """The fidelity claim: asynchronous deployment lands in the same
    quality regime as the cycle-driven simulation of the same
    configuration (same n, k, per-node budget, gossip-per-evals)."""

    def test_async_matches_cycle_driven_regime(self):
        n, k, budget = 16, 8, 2000
        cycle = Session(Scenario(
            function="sphere", nodes=n, particles_per_node=k,
            total_evaluations=n * budget, gossip_cycle=8,
            repetitions=3, seed=77,
        ))
        cycle_logq = np.median(
            [np.log10(max(cycle.run_one(rep).quality, 1e-300))
             for rep in range(3)]
        )
        async_logq = np.median(
            [
                np.log10(
                    max(
                        AsyncRuntime(
                            DeploymentConfig(
                                function="sphere", nodes=n,
                                particles_per_node=k, budget_per_node=budget,
                                evals_per_tick=8,
                                # gossip as often as compute ticks, like r=8
                                compute_period=1.0, gossip_period=1.0,
                                newscast_period=2.0, seed=seed,
                            )
                        ).run(until=50_000.0).quality,
                        1e-300,
                    )
                )
                for seed in (1, 2, 3)
            ]
        )
        # Same regime = within a few orders of magnitude on a scale
        # where configuration changes move results by tens of orders.
        assert abs(cycle_logq - async_logq) < 8.0
