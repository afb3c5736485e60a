"""Tests for synthetic churn processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.churn import (
    ChurnProcess,
    SessionChurn,
    lognormal_sessions,
)
from repro.simulator.engine import CycleDrivenEngine
from repro.simulator.network import Network
from repro.simulator.protocol import CycleProtocol
from repro.utils.config import ChurnConfig


class Noop(CycleProtocol):
    PROTOCOL_NAME = "noop"

    def __init__(self):
        self.joined = 0
        self.crashed = 0

    def next_cycle(self, node, engine):
        pass

    def on_join(self, node, engine):
        self.joined += 1

    def on_crash(self, node, engine):
        self.crashed += 1


def factory(node, engine=None):
    node.attach("noop", Noop())


def build_engine(n: int, churn) -> CycleDrivenEngine:
    net = Network(rng=np.random.default_rng(0))
    net.populate(n, factory=lambda node: factory(node))
    return CycleDrivenEngine(net, rng=np.random.default_rng(1), churn=churn)


class TestChurnProcess:
    def test_crash_rate_thins_population(self):
        churn = ChurnProcess(
            ChurnConfig(crash_rate=0.05), None, np.random.default_rng(2)
        )
        engine = build_engine(200, churn)
        engine.run(20)
        # E[survivors] = 200 * 0.95^20 ≈ 72; allow generous slack.
        assert 30 < engine.network.live_count < 130
        assert churn.crashes == 200 - engine.network.live_count

    def test_join_rate_grows_population(self):
        churn = ChurnProcess(
            ChurnConfig(join_rate=0.05), factory, np.random.default_rng(2)
        )
        engine = build_engine(100, churn)
        engine.run(20)
        # E[joins] = 20 cycles * 5/cycle = 100.
        assert engine.network.size > 140
        assert churn.joins == engine.network.size - 100

    def test_balanced_churn_roughly_stationary(self):
        churn = ChurnProcess(
            ChurnConfig(crash_rate=0.02, join_rate=0.02),
            factory,
            np.random.default_rng(2),
        )
        engine = build_engine(150, churn)
        engine.run(30)
        assert 100 < engine.network.live_count < 220

    def test_min_population_floor(self):
        churn = ChurnProcess(
            ChurnConfig(crash_rate=0.5, min_population=5),
            None,
            np.random.default_rng(2),
        )
        engine = build_engine(20, churn)
        engine.run(50)
        assert engine.network.live_count >= 5

    def test_join_requires_factory(self):
        with pytest.raises(ValueError):
            ChurnProcess(ChurnConfig(join_rate=0.1), None, np.random.default_rng(0))

    def test_lifecycle_hooks_fire(self):
        churn = ChurnProcess(
            ChurnConfig(crash_rate=0.2, join_rate=0.2),
            factory,
            np.random.default_rng(2),
        )
        engine = build_engine(50, churn)
        engine.run(10)
        crashed_hooks = sum(
            node.protocol("noop").crashed
            for node in engine.network.all_nodes()
        )
        joined_hooks = sum(
            node.protocol("noop").joined
            for node in engine.network.all_nodes()
        )
        assert crashed_hooks == churn.crashes
        assert joined_hooks == churn.joins

    def test_joiners_get_birth_cycle(self):
        churn = ChurnProcess(
            ChurnConfig(join_rate=0.5), factory, np.random.default_rng(2)
        )
        engine = build_engine(10, churn)
        engine.run(5)
        joiners = [n for n in engine.network.all_nodes() if n.node_id >= 10]
        assert joiners
        assert all(n.birth_cycle >= 0 for n in joiners)


class TestSessionChurn:
    def test_sessions_expire(self):
        churn = SessionChurn(
            session_sampler=lambda rng: 3,
            arrivals_per_cycle=0.0,
            factory=factory,
            rng=np.random.default_rng(2),
            min_population=1,
        )
        engine = build_engine(10, churn)
        engine.run(10)
        assert engine.network.live_count == 1  # floor held, rest expired

    def test_stationary_with_arrivals(self):
        churn = SessionChurn(
            session_sampler=lambda rng: int(rng.geometric(0.1)),  # mean 10
            arrivals_per_cycle=5.0,
            factory=factory,
            rng=np.random.default_rng(2),
        )
        engine = build_engine(50, churn)
        engine.run(40)
        # Little's law: E[population] = arrival_rate * mean_session = 50.
        assert 20 < engine.network.live_count < 100

    def test_bad_session_length_raises(self):
        churn = SessionChurn(
            session_sampler=lambda rng: 0,
            arrivals_per_cycle=0.0,
            factory=factory,
            rng=np.random.default_rng(2),
        )
        engine = build_engine(3, churn)
        with pytest.raises(ValueError):
            engine.run(1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SessionChurn(lambda r: 1, -1.0, factory, np.random.default_rng(0))
        with pytest.raises(ValueError):
            SessionChurn(lambda r: 1, 0.0, factory, np.random.default_rng(0),
                         min_population=0)


class TestSessionSamplers:
    def test_lognormal_median_close(self, rng):
        sampler = lognormal_sessions(20.0, sigma=0.5)
        draws = [sampler(rng) for _ in range(4000)]
        assert 15.0 < np.median(draws) < 25.0
        assert min(draws) >= 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            lognormal_sessions(0.5)
        with pytest.raises(ValueError):
            lognormal_sessions(10.0, sigma=0.0)
