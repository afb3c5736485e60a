"""Coordinator: run the shards, survive crashes, assemble one result.

Two fabrics, one shard driver (:func:`repro.sharding.engine.run_shard`):

* **in-process** — one thread per shard over an
  :class:`~repro.sharding.exchange.InProcessExchange`.  The threads
  barrier each other through the exchange, so results are
  deterministic regardless of scheduling.
* **spool** — one OS process per shard over a
  :class:`~repro.sharding.exchange.SpoolExchange` rooted in a shared
  directory.  The spool's posted windows persist and posts are
  idempotent, so crash recovery is *replay*: the coordinator respawns
  a dead shard worker, which re-executes deterministically from window
  0 — reading history at disk speed, re-posting no-ops — until it
  rejoins the live barrier.  Peers never notice beyond the stall.

Both fabrics produce bit-identical overlays and trajectories (the
spool-recovery test pins this).  ``REPRO_SHARD_FAULT="<shard>:<cycle>"``
arms a one-shot SIGKILL in the matching spool worker — the chaos seam
the CI shard-smoke job exercises.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
from pathlib import Path

from repro.core.kernels import resolve_backend_name
from repro.core.metrics import MessageTally, QualitySample
from repro.core.runner import default_max_cycles
from repro.functions.base import get_function
from repro.scenario.result import RunRecord
from repro.scenario.spec import Scenario
from repro.sharding.engine import ShardEngine, run_shard
from repro.sharding.exchange import InProcessExchange, SpoolExchange
from repro.sharding.plan import ShardPlan
from repro.utils.exceptions import ConfigurationError

__all__ = ["validate_sharded", "run_sharded", "run_sharded_detailed"]

#: Topologies the sharded views layer implements.
SHARDABLE_TOPOLOGIES = ("newscast", "oracle")

#: Respawn budget per shard worker before the run is declared failed.
MAX_RESPAWNS = 3

FAULT_ENV = "REPRO_SHARD_FAULT"


def validate_sharded(scenario: Scenario, shards: int) -> None:
    """Reject scenario features the sharded runtime does not cover.

    Sharding composes the SoA fast engine with the array NEWSCAST
    kernels; everything the composition cannot express fails loudly
    here rather than silently running a different experiment.
    """
    def bad(msg: str) -> ConfigurationError:
        return ConfigurationError(f"sharded execution: {msg}")

    if shards < 1:
        raise bad(f"shards must be >= 1, got {shards}")
    if shards > scenario.nodes:
        raise bad(
            f"{shards} shards need at least {shards} nodes, "
            f"got {scenario.nodes}"
        )
    if scenario.engine != "fast":
        raise bad(
            f"requires engine='fast' (the per-shard substrate), "
            f"got engine={scenario.engine!r}"
        )
    if scenario.churn.enabled:
        raise bad(
            "churn is not supported (joins allocate ids across "
            "shard boundaries)"
        )
    if scenario.objective_map is not None:
        raise bad("objective_map is not supported")
    if scenario.partitioned or scenario.solver not in ("pso", ("pso",)):
        raise bad("only the homogeneous PSO solver is supported")
    if scenario.baseline is not None:
        raise bad("baselines are single-process by definition")
    if scenario.observers:
        raise bad("live observer objects cannot cross shard boundaries")
    if scenario.dynamics.enabled:
        raise bad(
            "dynamic landscapes are not supported (epoch transitions "
            "must refresh every node's stale bests atomically, which "
            "shard windows cannot order)"
        )
    if scenario.adversary.enabled:
        raise bad(
            "hostile overlays are not supported (the Byzantine subset "
            "and its tallies are engine-global state)"
        )
    if scenario.topology not in SHARDABLE_TOPOLOGIES:
        raise bad(
            f"topology must be one of {SHARDABLE_TOPOLOGIES}, "
            f"got {scenario.topology!r}"
        )


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


def _max_cycles(scenario: Scenario) -> int:
    if scenario.max_cycles is not None:
        return scenario.max_cycles
    return default_max_cycles(scenario.to_experiment_config())


def _assemble(scenario: Scenario, fragments: list[dict]) -> RunRecord:
    """One :class:`RunRecord` from the shards' fragments.

    Global quantities (best value, stop reason, trajectory) are
    barrier-synchronized and identical on every shard — read from
    fragment 0; per-shard tallies (evaluations, messages, exchanges)
    sum.
    """
    frag0 = fragments[0]
    best = float(frag0["best_value"])
    function = get_function(scenario.primary_function())
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


# -- in-process fabric -------------------------------------------------------------


def _run_threads(scenario: Scenario, repetition: int,
                 plan: ShardPlan) -> list[dict]:
    import threading

    exchange = InProcessExchange(plan.shards)
    engines = [
        _build_engine(scenario, repetition, plan, s)
        for s in range(plan.shards)
    ]
    cap = _max_cycles(scenario)
    fragments: list[dict | None] = [None] * plan.shards
    errors: list[BaseException] = []

    def work(s: int) -> None:
        try:
            fragments[s] = run_shard(engines[s], exchange, cap)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(s,), name=f"shard-{s}")
        for s in range(plan.shards)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return fragments  # type: ignore[return-value]


# -- spool fabric ------------------------------------------------------------------


def _result_path(root: Path, shard: int) -> Path:
    return root / f"shard{shard:03d}.result.json"


def _write_json(path: Path, payload: dict) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _fault_hook(root: Path, shard: int):
    """One-shot SIGKILL at ``REPRO_SHARD_FAULT="<shard>:<cycle>"``.

    The marker file lives in the shared spool root, so the respawned
    worker sees the fault already fired and runs to completion.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return None
    fault_shard, _, fault_cycle = spec.partition(":")
    if int(fault_shard) != shard:
        return None
    at = int(fault_cycle)
    marker = root / f"fault-{shard}.fired"

    def hook(cycle: int) -> None:
        if cycle == at and not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


def _shard_worker(root_str: str, shard: int) -> None:
    """Spool worker entry point (top-level: spawn pickles it by name)."""
    root = Path(root_str)
    with open(root / "run.json") as fh:
        run_spec = json.load(fh)
    scenario = Scenario.from_dict(run_spec["scenario"])
    plan = ShardPlan(scenario.nodes, run_spec["shards"])
    engine = _build_engine(scenario, run_spec["repetition"], plan, shard)
    exchange = SpoolExchange(root / "msgs", plan.shards)
    fragment = run_shard(
        engine, exchange, _max_cycles(scenario),
        fault_hook=_fault_hook(root, shard),
    )
    _write_json(_result_path(root, shard), fragment)


def _run_spool(scenario: Scenario, repetition: int, plan: ShardPlan,
               spool: str | Path) -> list[dict]:
    import multiprocessing

    root = Path(spool)
    root.mkdir(parents=True, exist_ok=True)
    spec = scenario.to_dict()
    # Workers resolve the backend *before* spawning: a per-process
    # fallback would re-warn in every worker and could diverge.
    spec["kernel_backend"] = resolve_backend_name(scenario.kernel_backend)
    _write_json(root / "run.json", {
        "scenario": spec,
        "repetition": repetition,
        "shards": plan.shards,
    })

    ctx = multiprocessing.get_context("spawn")

    def spawn(s: int):
        proc = ctx.Process(
            target=_shard_worker, args=(str(root), s), name=f"shard-{s}"
        )
        proc.start()
        return proc

    procs = {s: spawn(s) for s in range(plan.shards)}
    attempts = {s: 1 for s in range(plan.shards)}
    try:
        while procs:
            time.sleep(0.05)
            for s, proc in list(procs.items()):
                if proc.exitcode is None:
                    continue
                proc.join()
                if proc.exitcode == 0 and _result_path(root, s).exists():
                    del procs[s]
                    continue
                if attempts[s] > MAX_RESPAWNS:
                    raise RuntimeError(
                        f"shard worker {s} failed {attempts[s]} times "
                        f"(last exit code {proc.exitcode}); spool kept "
                        f"at {root} for inspection"
                    )
                attempts[s] += 1
                procs[s] = spawn(s)
    finally:
        for proc in procs.values():
            if proc.exitcode is None:
                proc.terminate()
                proc.join()

    fragments = []
    for s in range(plan.shards):
        with open(_result_path(root, s)) as fh:
            fragments.append(json.load(fh))
    return fragments


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
    validate_sharded(scenario, shards)
    plan = ShardPlan(scenario.nodes, shards)
    if spool is None:
        fragments = _run_threads(scenario, repetition, plan)
    else:
        fragments = _run_spool(scenario, repetition, plan, spool)
    return _assemble(scenario, fragments), fragments


def run_sharded(
    scenario: Scenario,
    repetition: int = 0,
    shards: int = 2,
    spool: str | Path | None = None,
) -> RunRecord:
    """Run one repetition of ``scenario`` partitioned over ``shards``.

    In-process (``spool=None``) runs shard threads; with a spool
    directory each shard is an OS process and the run survives worker
    crashes by deterministic replay.  Reached through the execution
    surface as ``Session(scenario).run(policy=ExecutionPolicy(
    shards=...))``.
    """
    record, _ = run_sharded_detailed(scenario, repetition, shards, spool)
    return record
