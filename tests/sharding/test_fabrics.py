"""One shard driver, three ways to carry its barrier — and how they fail.

``run_shard`` is deterministic given its incoming payloads, so driving
it by threads over an :class:`InProcessExchange` (the contract's
reference, and what the bench's traced twin does), by worker processes
over pipes and by worker processes over a spool must give the same
fragments.  Over pipes there is no log to replay: a failed worker fails
the run at once, under its own name, and leaves no process behind.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import pytest

from repro.scenario import Scenario, Session
from repro.sharding import (
    ShardPlan,
    coordinator,
    run_sharded,
    run_sharded_detailed,
)
from repro.sharding.engine import ShardEngine, run_shard
from repro.sharding.exchange import InProcessExchange

#: Wall-clock fields: the only ones that may differ between fabrics.
TIMINGS = ("elapsed", "node_cycles_per_second")


def _scenario() -> Scenario:
    return Scenario(
        function="sphere",
        nodes=30,
        total_evaluations=3600,
        max_cycles=30,
        engine="fast",
        repetitions=1,
        record_history=True,
        seed=23,
    )


def _thread_fragments(scenario: Scenario, shards: int) -> list[dict]:
    """The reference: shard threads in this process, one mailbox."""
    plan = ShardPlan(scenario.nodes, shards)
    exchange = InProcessExchange(shards, timeout=30.0)
    engines = [
        ShardEngine(
            scenario.to_experiment_config(), 0, plan, shard,
            topology=scenario.topology, rng_mode=scenario.rng_mode,
            kernel_backend=scenario.kernel_backend,
            record_history=scenario.record_history,
        )
        for shard in range(shards)
    ]
    cap = Session(scenario).max_cycles()
    fragments: list[dict | None] = [None] * shards

    def work(shard: int) -> None:
        fragments[shard] = run_shard(engines[shard], exchange, cap)

    threads = [
        threading.Thread(target=work, args=(shard,)) for shard in range(shards)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(fragment is not None for fragment in fragments)
    return fragments


def _untimed(fragments: list[dict]) -> list[dict]:
    return [
        {key: value for key, value in fragment.items() if key not in TIMINGS}
        for fragment in fragments
    ]


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("fabric", ["pipes", "spool"])
def test_every_fabric_yields_the_thread_references_fragments(
    fabric, shards, tmp_path
):
    scenario = _scenario()
    spool = tmp_path / "spool" if fabric == "spool" else None
    reference = _thread_fragments(scenario, shards)
    record, fragments = run_sharded_detailed(
        scenario, repetition=0, shards=shards, spool=spool
    )
    assert _untimed(fragments) == _untimed(reference)
    assert all(fragment[key] > 0 for fragment in fragments for key in TIMINGS)
    assert record == coordinator._assemble(scenario, reference)
    assert record == run_sharded(scenario, repetition=0, shards=shards)
    assert len(record.history) == record.cycles
    assert multiprocessing.active_children() == []


def test_killed_pipe_worker_fails_the_run_fast_and_by_name(monkeypatch):
    monkeypatch.setenv(coordinator.FAULT_ENV, "1:3")
    began = time.monotonic()
    with pytest.raises(RuntimeError, match=r"shard worker 1 failed \(exit code -9\)"):
        run_sharded(_scenario(), repetition=0, shards=2)
    assert time.monotonic() - began < 10.0
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    sys.platform != "linux", reason="the patch reaches the workers by fork"
)
def test_raising_pipe_worker_reports_its_own_exception(monkeypatch):
    """Not the ``ShardExchangeAborted`` its peers die of."""
    build = coordinator._build_engine

    def broken(scenario, repetition, plan, shard):
        engine = build(scenario, repetition, plan, shard)
        if shard == 2:
            engine.finalize_cycle = lambda incoming: 1 / 0
        return engine

    monkeypatch.setattr(coordinator, "_build_engine", broken)
    with pytest.raises(
        RuntimeError, match=r"shard worker 2 failed \(ZeroDivisionError"
    ):
        run_sharded(_scenario(), repetition=0, shards=3)
    assert multiprocessing.active_children() == []


def test_workers_start_by_spawn_as_well(monkeypatch):
    """Off Linux the platform's default method starts the same worker
    function on pickled arguments."""
    forked = run_sharded(_scenario(), repetition=0, shards=3)
    get_context = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method=None: get_context("spawn")
    )
    assert run_sharded(_scenario(), repetition=0, shards=3) == forked
    assert multiprocessing.active_children() == []
