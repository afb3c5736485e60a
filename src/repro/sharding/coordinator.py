"""Coordinator: run the shards, survive crashes, assemble one result.

One worker process per shard, each building its own
:class:`~repro.sharding.engine.ShardEngine` and running the one shard
driver (:func:`repro.sharding.engine.run_shard`); the fragments come
back over result pipes.  The shards of one run meet only at the window
barrier, and a window is tens of thousands of sub-millisecond
Python-level calls — threads would serialize on the interpreter lock,
so the workers are processes.  Two fabrics carry the barrier:

* **pipes** (the default) — a full mesh of duplex pipes between the
  workers (:class:`~repro.sharding.exchange.PipeExchange`).  Nothing
  is logged, so a worker that raises or dies fails the run at once,
  under its own name (its exception text, or its exit code), and its
  peers are terminated.
* **spool** — a :class:`~repro.sharding.exchange.SpoolExchange` rooted
  in a shared directory.  The spool's posted windows persist and posts
  are idempotent, so crash recovery is *replay*: the coordinator
  respawns a dead shard worker, which re-executes deterministically
  from window 0 — reading history at disk speed, re-posting no-ops —
  until it rejoins the live barrier.  Peers never notice beyond the
  stall.

Both fabrics produce bit-identical overlays and trajectories (pinned by
``tests/sharding/test_fabrics.py``).  ``REPRO_SHARD_FAULT=
"<shard>:<cycle>"`` arms a one-shot SIGKILL in the matching worker —
the chaos seam the CI shard-smoke job exercises on both fabrics.

Workers start by :func:`~repro.scenario.policy.process_context`'s rule
(``fork`` on Linux); the coordinator starts no thread before forking.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import signal
from multiprocessing.connection import Connection, wait
from pathlib import Path

from repro.core.metrics import MessageTally, QualitySample
from repro.functions.base import get_function
from repro.scenario import support
from repro.scenario.policy import process_context
from repro.scenario.result import RunRecord
from repro.scenario.session import Session
from repro.scenario.spec import Scenario
from repro.sharding.engine import ShardEngine, run_shard
from repro.sharding.exchange import (
    PipeExchange,
    ShardExchangeAborted,
    SpoolExchange,
)
from repro.sharding.plan import ShardPlan

__all__ = ["run_sharded", "run_sharded_detailed"]

#: Respawn budget per shard worker before the run is declared failed.
MAX_RESPAWNS = 3

FAULT_ENV = "REPRO_SHARD_FAULT"


def _build_engine(scenario: Scenario, repetition: int, plan: ShardPlan,
                  shard: int) -> ShardEngine:
    return ShardEngine(
        scenario.to_experiment_config(),
        repetition,
        plan,
        shard,
        topology=scenario.topology,
        rng_mode=scenario.rng_mode,
        kernel_backend=scenario.kernel_backend,
        record_history=scenario.record_history,
    )


def _assemble(scenario: Scenario, fragments: list[dict]) -> RunRecord:
    """One :class:`RunRecord` from the shards' fragments.

    Global quantities (best value, stop reason, trajectory) are
    barrier-synchronized and identical on every shard — read from
    fragment 0; per-shard tallies (evaluations, messages, exchanges)
    sum.
    """
    frag0 = fragments[0]
    best = float(frag0["best_value"])
    function = get_function(scenario.function)
    threshold_local = None
    if frag0["threshold_cycle"] is not None:
        threshold_local = frag0["threshold_cycle"] * scenario.gossip_cycle
    messages = MessageTally(
        newscast_exchanges=sum(f["exchanges"] for f in fragments),
        coordination_messages=sum(f["messages_sent"] for f in fragments),
        coordination_adoptions=sum(f["adoptions"] for f in fragments),
        transport_sent=sum(f["messages_sent"] for f in fragments),
        transport_to_dead=0,
    )
    los = [f["spread_lo"] for f in fragments if f["spread_lo"] is not None]
    his = [f["spread_hi"] for f in fragments if f["spread_hi"] is not None]
    spread = (max(his) - min(los)) if los else float("inf")
    return RunRecord(
        best_value=best,
        quality=function.quality(best),
        total_evaluations=sum(f["evaluations"] for f in fragments),
        cycles=int(frag0["cycles"]),
        stop_reason=str(frag0["stop_reason"]),
        threshold_local_time=threshold_local,
        threshold_total_evaluations=frag0["threshold_evaluations"],
        messages=messages,
        node_best_spread=spread,
        history=[
            QualitySample(int(c), int(e), float(b))
            for c, e, b in frag0["history"]
        ],
        crashes=0,
        joins=0,
    )


# -- the worker processes ----------------------------------------------------------


def _fault_hook(shard: int, marker: Path | None):
    """One-shot SIGKILL at ``REPRO_SHARD_FAULT="<shard>:<cycle>"``.

    Over a spool the ``marker`` file in the shared root latches the
    fault, so the respawned worker sees it already fired and runs to
    completion; over pipes nothing respawns and nothing is latched.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return None
    fault_shard, _, fault_cycle = spec.partition(":")
    if int(fault_shard) != shard:
        return None
    at = int(fault_cycle)

    def hook(cycle: int) -> None:
        if cycle == at and not (marker and marker.exists()):
            if marker:
                marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


def _close_mesh(mesh: dict, keep: int | None = None) -> None:
    """Close every pipe end of the mesh but shard ``keep``'s own row.

    A dead worker reads as EOF only once nobody else holds a copy of
    its ends — not the coordinator, not a forked sibling.
    """
    for owner, conns in mesh.items():
        if owner != keep:
            for conn in conns.values():
                conn.close()


def _shard_worker(spec: dict, repetition: int, shards: int, shard: int,
                  fabric, result) -> None:
    """Worker entry point (top-level: ``spawn`` pickles it by name).

    ``fabric`` is the spool root (``str``) or the whole pipe mesh
    ``{shard: {peer: connection}}``, of which the worker keeps its row.
    ``result`` carries back the fragment, the text of the worker's own
    exception, or ``None`` when a failed *peer* aborted the barrier.
    """
    try:
        scenario = Scenario.from_dict(spec)
        plan = ShardPlan(scenario.nodes, shards)
        if isinstance(fabric, str):
            exchange = SpoolExchange(Path(fabric) / "msgs", shards)
            marker = Path(fabric) / f"fault-{shard}.fired"
        else:
            _close_mesh(fabric, keep=shard)
            exchange = PipeExchange(shards, shard, fabric[shard])
            marker = None
        outcome = run_shard(
            _build_engine(scenario, repetition, plan, shard), exchange,
            Session(scenario).max_cycles(), fault_hook=_fault_hook(shard, marker),
        )
    except ShardExchangeAborted:
        outcome = None
    except Exception as exc:  # noqa: BLE001 - reported under the shard's name
        outcome = f"{type(exc).__name__}: {exc}"
    result.send(outcome)


def _run_workers(scenario: Scenario, repetition: int, plan: ShardPlan,
                 spool: str | Path | None) -> list[dict]:
    """Start one worker per shard and wait for every fragment.

    A worker that raised or died fails the run under its own name over
    pipes and is respawned (:data:`MAX_RESPAWNS` times) over a spool.
    """
    ctx = process_context()
    shards = plan.shards
    spec = scenario.to_dict()
    if spool is None:
        fabric = {s: {} for s in range(shards)}
        for a, b in itertools.combinations(range(shards), 2):
            fabric[a][b], fabric[b][a] = ctx.Pipe()
        respawns = 0
    else:
        root = Path(spool)
        root.mkdir(parents=True, exist_ok=True)
        (root / "run.json").write_text(json.dumps({
            "scenario": spec, "repetition": repetition, "shards": shards,
        }))
        fabric = str(root)
        respawns = MAX_RESPAWNS

    procs: dict[int, multiprocessing.Process] = {}
    pending: dict[Connection, int] = {}

    def start(s: int) -> None:
        receiver, sender = ctx.Pipe(duplex=False)
        procs[s] = ctx.Process(
            target=_shard_worker, name=f"shard-{s}", daemon=True,
            args=(spec, repetition, shards, s, fabric, sender),
        )
        procs[s].start()
        sender.close()
        pending[receiver] = s

    fragments: dict[int, dict] = {}
    aborted: list[int] = []
    attempts = dict.fromkeys(range(shards), 1)
    try:
        for s in range(shards):
            start(s)
        if spool is None:
            _close_mesh(fabric)
        while pending:
            for receiver in wait(list(pending)):
                s = pending.pop(receiver)
                try:
                    outcome = receiver.recv()
                except EOFError:
                    procs[s].join()
                    outcome = f"exit code {procs[s].exitcode}"
                receiver.close()
                if isinstance(outcome, dict):
                    fragments[s] = outcome
                elif outcome is None:
                    aborted.append(s)
                elif attempts[s] > respawns:
                    raise RuntimeError(
                        f"shard worker {s} failed ({outcome})" + (
                            f" {attempts[s]} times; spool kept at {spool} "
                            f"for inspection" if spool is not None else ""
                        )
                    )
                else:
                    procs[s].join()
                    attempts[s] += 1
                    start(s)
        if aborted:
            raise RuntimeError(
                f"shard workers {aborted} lost a peer that reported no failure"
            )
    finally:
        for receiver in pending:
            receiver.close()
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
            proc.join()
    return [fragments[s] for s in range(shards)]


# -- entry points ------------------------------------------------------------------


def run_sharded_detailed(
    scenario: Scenario,
    repetition: int = 0,
    shards: int = 2,
    spool: str | Path | None = None,
) -> tuple[RunRecord, list[dict]]:
    """Like :func:`run_sharded`, also returning the per-shard fragments
    (cycle counts, local tallies, wall-clock throughput — the bench
    harness reads these)."""
    support.check(scenario, "shards")
    plan = ShardPlan(scenario.nodes, shards)
    fragments = _run_workers(scenario, repetition, plan, spool)
    return _assemble(scenario, fragments), fragments


def run_sharded(
    scenario: Scenario,
    repetition: int = 0,
    shards: int = 2,
    spool: str | Path | None = None,
) -> RunRecord:
    """Run one repetition of ``scenario`` partitioned over ``shards``.

    Each shard is a worker process; they exchange over pipes
    (``spool=None``) or through a spool directory, where the run also
    survives worker crashes by deterministic replay.  Reached through
    the execution surface as ``Session(scenario).run(policy=
    ExecutionPolicy(shards=...))``.
    """
    record, _ = run_sharded_detailed(scenario, repetition, shards, spool)
    return record
