"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.network import Network
from repro.utils.rng import SeedSequenceTree


def pytest_configure(config: pytest.Config) -> None:
    # Registered so CI's --strict-markers accepts it; tier-1 deselects
    # nothing by it.
    config.addinivalue_line(
        "markers", "slow: a test that takes seconds (still part of tier-1)"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests that need raw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def seed_tree() -> SeedSequenceTree:
    """A deterministic seed tree."""
    return SeedSequenceTree(987)


@pytest.fixture
def network(rng) -> Network:
    """An empty network with a seeded RNG."""
    return Network(rng=rng)
