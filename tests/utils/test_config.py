"""Tests for configuration validation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.utils.config import (
    ChurnConfig,
    CoordinationConfig,
    ExperimentConfig,
    NewscastConfig,
    PSOConfig,
)
from repro.utils.exceptions import ConfigurationError


def make_config(**overrides) -> ExperimentConfig:
    base = dict(
        function="sphere",
        nodes=4,
        particles_per_node=8,
        total_evaluations=1000,
        gossip_cycle=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestNewscastConfig:
    def test_defaults(self):
        cfg = NewscastConfig()
        assert cfg.view_size == 20
        assert cfg.exchange_per_cycle == 1

    @pytest.mark.parametrize("view_size", [0, -1])
    def test_bad_view_size(self, view_size):
        with pytest.raises(ConfigurationError):
            NewscastConfig(view_size=view_size)

    def test_bad_exchange_rate(self):
        with pytest.raises(ConfigurationError):
            NewscastConfig(exchange_per_cycle=0)


class TestPSOConfig:
    def test_defaults_are_constricted(self):
        cfg = PSOConfig()
        assert cfg.inertia == pytest.approx(0.7298)
        assert cfg.c1 == pytest.approx(1.49618)

    def test_bad_particles(self):
        with pytest.raises(ConfigurationError):
            PSOConfig(particles=0)

    def test_negative_learning_factor(self):
        with pytest.raises(ConfigurationError):
            PSOConfig(c1=-0.1)

    def test_vmax_none_allowed(self):
        assert PSOConfig(vmax_fraction=None).vmax_fraction is None

    def test_vmax_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            PSOConfig(vmax_fraction=0.0)

    def test_nonpositive_inertia_rejected(self):
        with pytest.raises(ConfigurationError):
            PSOConfig(inertia=0.0)


class TestCoordinationConfig:
    @pytest.mark.parametrize("mode", ["push", "pull", "push-pull"])
    def test_valid_modes(self, mode):
        assert CoordinationConfig(mode=mode).mode == mode

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            CoordinationConfig(mode="broadcast")

    def test_bad_cycle_length(self):
        with pytest.raises(ConfigurationError):
            CoordinationConfig(cycle_length=0)


class TestChurnConfig:
    def test_disabled_by_default(self):
        assert not ChurnConfig().enabled

    def test_enabled_with_crash_rate(self):
        assert ChurnConfig(crash_rate=0.01).enabled

    def test_enabled_with_join_rate(self):
        assert ChurnConfig(join_rate=0.01).enabled

    def test_crash_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(crash_rate=1.0)
        with pytest.raises(ConfigurationError):
            ChurnConfig(crash_rate=-0.1)

    def test_min_population(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(min_population=0)


class TestExperimentConfig:
    def test_valid(self):
        cfg = make_config()
        assert cfg.evaluations_per_node == 250

    def test_scalar_knobs_propagate_to_bundles(self):
        cfg = make_config(particles_per_node=5, gossip_cycle=3)
        assert cfg.pso.particles == 5
        assert cfg.coordination.cycle_length == 3

    def test_frozen(self):
        cfg = make_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.nodes = 10  # type: ignore[misc]

    def test_with_returns_modified_copy(self):
        cfg = make_config()
        cfg2 = cfg.with_(nodes=16)
        assert cfg2.nodes == 16
        assert cfg.nodes == 4

    @pytest.mark.parametrize(
        "field,value",
        [
            ("function", ""),
            ("nodes", 0),
            ("particles_per_node", 0),
            ("total_evaluations", 0),
            ("gossip_cycle", 0),
            ("repetitions", 0),
            ("seed", -1),
            ("quality_threshold", 0.0),
            ("quality_threshold", -1.0),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ConfigurationError):
            make_config(**{field: value})

    def test_describe_mentions_all_knobs(self):
        desc = make_config().describe()
        for token in ("sphere", "n=4", "k=8", "e=1000", "r=8"):
            assert token in desc

    def test_evaluations_per_node_floor_division(self):
        cfg = make_config(nodes=3, total_evaluations=1000)
        assert cfg.evaluations_per_node == 333
