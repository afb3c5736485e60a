"""Tests for observers and the trace recorder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.engine import CycleDrivenEngine
from repro.simulator.network import Network
from repro.simulator.observers import FunctionObserver, StopCondition
from repro.simulator.trace import TraceRecorder, emit


def build_engine(n=2) -> CycleDrivenEngine:
    net = Network(rng=np.random.default_rng(0))
    net.populate(n)
    return CycleDrivenEngine(net, rng=np.random.default_rng(1))


class TestObservers:
    def test_function_observer(self):
        engine = build_engine()
        cycles = []
        engine.add_observer(FunctionObserver(lambda e: cycles.append(e.cycle)))
        engine.run(3)
        assert cycles == [1, 2, 3]

    def test_stop_condition_reason(self):
        engine = build_engine()
        engine.add_observer(StopCondition(lambda e: e.cycle >= 2, reason="why"))
        engine.run(10)
        assert engine.stop_reason == "why"


class TestTraceRecorder:
    def test_emit_and_filter(self):
        rec = TraceRecorder()
        rec.emit(0.0, "a", 1, "x")
        rec.emit(1.0, "b", 2, "y")
        rec.emit(2.0, "a", 2, "z")
        assert len(rec) == 3
        assert [r.detail for r in rec.records(kind="a")] == ["x", "z"]
        assert [r.detail for r in rec.records(node=2)] == ["y", "z"]
        assert [r.detail for r in rec.records(kind="a", node=2)] == ["z"]

    def test_capacity_evicts_oldest(self):
        rec = TraceRecorder(capacity=2)
        for i in range(5):
            rec.emit(float(i), "k", None, i)
        assert [r.detail for r in rec.records()] == [3, 4]
        assert rec.emitted == 5

    def test_kind_whitelist(self):
        rec = TraceRecorder(kinds=["keep"])
        rec.emit(0.0, "keep", None)
        rec.emit(0.0, "drop", None)
        assert len(rec) == 1

    def test_attach_and_module_emit(self):
        engine = build_engine()
        rec = TraceRecorder().attach(engine)
        emit(engine, "evt", 0, "payload")
        assert engine.trace is rec
        assert rec.records(kind="evt")[0].detail == "payload"

    def test_emit_without_recorder_is_noop(self):
        engine = build_engine()
        emit(engine, "evt", 0)  # must not raise

    def test_clear_keeps_emitted_counter(self):
        rec = TraceRecorder()
        rec.emit(0.0, "k", None)
        rec.clear()
        assert len(rec) == 0
        assert rec.emitted == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)
