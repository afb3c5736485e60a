"""Property-based (hypothesis) tests of system-level invariants.

These fuzz network shapes, seeds and protocol parameters and assert
the invariants everything else rests on:

* diffusion never *invents* optima — any value a node reports was
  evaluated by some swarm or injected by the test;
* every node's known best is monotonically non-increasing;
* the global budget is consumed exactly, for any (n, k, e, r);
* determinism: a (config, seed) pair fully determines the outcome;
* the plausibility filter never catches more lies than were sent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimum import Optimum
from repro.scenario import Scenario, Session
from repro.simulator.adversary import AdversarySpec
from repro.utils.config import CoordinationConfig


@settings(max_examples=12, deadline=None)
@given(
    nodes=st.integers(1, 12),
    particles=st.integers(1, 8),
    evals_per_node=st.integers(10, 120),
    gossip=st.integers(1, 16),
    seed=st.integers(0, 10_000),
)
def test_property_budget_exact_for_any_shape(
    nodes, particles, evals_per_node, gossip, seed
):
    """Exactly e evaluations happen, whatever the configuration."""
    cfg = Scenario(
        function="sphere",
        nodes=nodes,
        particles_per_node=particles,
        total_evaluations=evals_per_node * nodes,
        gossip_cycle=gossip,
        seed=seed,
    )
    result = Session(cfg).run_one(0)
    assert result.total_evaluations == evals_per_node * nodes
    assert result.stop_reason == "budget"


@settings(max_examples=10, deadline=None)
@given(
    nodes=st.integers(2, 10),
    seed=st.integers(0, 10_000),
)
def test_property_history_monotone(nodes, seed):
    """The observed global best never regresses, for any seed."""
    cfg = Scenario(
        function="rosenbrock",
        nodes=nodes,
        particles_per_node=4,
        total_evaluations=nodes * 80,
        gossip_cycle=4,
        seed=seed,
    )
    result = Session(cfg.with_(record_history=True)).run_one(0)
    bests = [h.best_value for h in result.history]
    assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_deterministic(seed):
    """(config, seed) fully determines the run."""
    cfg = Scenario(
        function="griewank",
        nodes=5,
        particles_per_node=4,
        total_evaluations=400,
        gossip_cycle=4,
        seed=seed,
    )
    a = Session(cfg).run_one(0)
    b = Session(cfg).run_one(0)
    assert a.best_value == b.best_value
    assert a.messages.coordination_messages == b.messages.coordination_messages


@settings(max_examples=10, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=1e-12, max_value=1e6), min_size=2, max_size=12
    ),
    seed=st.integers(0, 1000),
)
def test_property_diffusion_never_invents_values(values, seed):
    """After seeding known optima and gossiping, every node's best is
    one of the seeded values or a genuinely evaluated point."""
    from tests.core.test_coordination import build_coordination_network

    n = len(values)
    net, engine, services = build_coordination_network(n, seed=seed)
    evaluated: set[float] = set()
    for service, value in zip(services, values):
        evaluated.add(round(service.local_step(), 12))
        service.offer(Optimum(np.full(4, 1.0), value))
    engine.run(6)
    allowed = {round(v, 12) for v in values} | evaluated
    for service in services:
        assert round(service.current_best().value, 12) in allowed


@settings(max_examples=10, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=1e-12, max_value=1e6), min_size=2, max_size=12
    ),
    seed=st.integers(0, 1000),
)
def test_property_minimum_always_survives(values, seed):
    """The network-wide minimum seeded value is never lost, for any
    seed and any set of values (min-merge is an idempotent lattice
    operation)."""
    from tests.core.test_coordination import build_coordination_network

    n = len(values)
    net, engine, services = build_coordination_network(n, seed=seed)
    floor = min(values)
    for service, value in zip(services, values):
        service.local_step()
        service.offer(Optimum(np.full(4, 1.0), value))
    target = min(min(s.current_best().value for s in services), floor)
    engine.run(6)
    assert min(s.current_best().value for s in services) <= target + 1e-15


_ENGINES = {
    "reference": dict(engine="reference"),
    "fast": dict(engine="fast"),
    "event-reference": dict(engine="event", horizon=60.0),
    "event-fast": dict(engine="event", event_backend="fast", horizon=60.0),
}


@pytest.mark.parametrize("behavior", ["false-best", "corrupt"])
@pytest.mark.parametrize("mode", ["push", "push-pull", "pull"])
@pytest.mark.parametrize("engine", list(_ENGINES))
def test_filter_catches_no_more_than_was_forged(engine, mode, behavior):
    """On a static landscape only a tampered message can fail the
    plausibility filter, so ``filtered`` is bounded by the lying
    messages sent — on every engine, because each lie is tallied when
    its message is sent.  A pull-mode lie travels only as an answer, and
    every delivered answer is verified: forged == filtered exactly
    (the per-node event runtime may end with answers still in flight).
    """
    scenario = Scenario(
        function="sphere", nodes=48, particles_per_node=4,
        total_evaluations=48 * 160, gossip_cycle=4, repetitions=1, seed=77,
        coordination=CoordinationConfig(mode=mode),
        adversary=AdversarySpec(0.25, behavior, defense=True),
        **_ENGINES[engine],
    )
    tally = Session(scenario).run_one(0).adversary
    forged = tally["false_offers"] + tally["corrupted"]
    assert 0 < tally["filtered"] <= forged
    if (behavior, mode) == ("false-best", "pull") and engine != "event-reference":
        assert tally["filtered"] == forged
