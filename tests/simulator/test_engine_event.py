"""Tests for the event-driven engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.engine import EventDrivenEngine
from repro.simulator.network import Network
from repro.utils.exceptions import SimulationError


def make_engine() -> EventDrivenEngine:
    return EventDrivenEngine(Network(rng=np.random.default_rng(0)),
                             rng=np.random.default_rng(1))


class TestEventOrdering:
    def test_time_order(self):
        engine = make_engine()
        order = []
        engine.schedule(3.0, lambda e: order.append("c"))
        engine.schedule(1.0, lambda e: order.append("a"))
        engine.schedule(2.0, lambda e: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        engine = make_engine()
        order = []
        for tag in "abc":
            engine.schedule(1.0, lambda e, t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_with_events(self):
        engine = make_engine()
        times = []
        engine.schedule(5.0, lambda e: times.append(e.now))
        engine.schedule(2.5, lambda e: times.append(e.now))
        engine.run()
        assert times == [2.5, 5.0]

    def test_schedule_in_past_raises(self):
        engine = make_engine()
        engine.schedule(1.0, lambda e: None)
        engine.run()
        assert engine.now == 1.0
        with pytest.raises(SimulationError):
            engine.schedule(0.5, lambda e: None)

    def test_schedule_at_now_allowed(self):
        engine = make_engine()
        order = []
        def chain(e):
            order.append("first")
            e.schedule(e.now, lambda e2: order.append("second"))
        engine.schedule(1.0, chain)
        engine.run()
        assert order == ["first", "second"]


class TestRunBounds:
    def test_until_leaves_future_events_queued(self):
        engine = make_engine()
        fired = []
        engine.schedule(1.0, lambda e: fired.append(1))
        engine.schedule(10.0, lambda e: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.pending_events == 1
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_max_events(self):
        engine = make_engine()
        for t in range(5):
            engine.schedule(float(t + 1), lambda e: None)
        processed = engine.run(max_events=3)
        assert processed == 3
        assert engine.pending_events == 2

    def test_stop_interrupts(self):
        engine = make_engine()
        fired = []
        engine.schedule(1.0, lambda e: (fired.append(1), e.stop("halt")))
        engine.schedule(2.0, lambda e: fired.append(2))
        engine.run()
        assert fired == [1]

    def test_events_processed_counter(self):
        engine = make_engine()
        for t in range(4):
            engine.schedule(float(t), lambda e: None)
        engine.run()
        assert engine.events_processed == 4
