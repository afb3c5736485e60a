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


@pytest.fixture
def run_reference_on():
    """Run a scenario's repetition on the reference engine over a custom
    topology: ``per_node(node_id) -> (protocol_name, PeerSampler)``
    replaces NEWSCAST on every node, joiners included.

    The node assembly's substitutability seam; ``Scenario.topology``
    names only the built-in overlays.
    """
    from repro.core.runner import _run_single_reference
    from repro.topology.provider import TopologyPlan

    def run(scenario, per_node, repetition=0):
        plan = TopologyPlan("custom", lambda nid, tree: per_node(nid))
        return _run_single_reference(
            scenario.to_experiment_config(),
            repetition=repetition,
            record_history=scenario.record_history,
            plan=plan,
        )

    return run
