"""The five benchmark workloads: inputs, timed call, checks, traced twin.

Every workload goes through the public API only.  ``build`` makes the
inputs from a seed (the program never sees the seed, only the
generated :class:`Scenario` values), ``run`` is the timed call a user
would make, ``check`` returns one message per failed operation, and
``traced`` runs the same inputs once more with the timing proxies of
:mod:`tracing` between the layers, checks that what it simulated is
bit-identical to the untraced records, and returns the per-layer
metrics, the failures and the seconds its twin of the timed call took
(what ``trace.overhead_fraction`` compares with the untraced call).

Sizes: ``nodes`` is fixed per workload (array sizes decide which layer
dominates); cycles / horizon / repetitions are scaled so one operation
set takes about a second on a 2-core box and a 12 s run holds ~9 of
them.  ``tiny`` is the smoke-test scale.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import ChurnConfig, ExecutionPolicy, Scenario, Session, TransportSpec
from repro.core.eventpath import CohortEventEngine
from repro.core.fastpath import run_single_fast
from repro.core.kernels import get_backend
from repro.distributed import (
    JobQueue,
    collect_from_spool,
    execute_job,
    jobs_for_sweep,
    run_worker,
)
from repro.scenario import AdversarySpec, DynamicsSpec, RunRecord
from repro.sharding import ShardPlan
from repro.sharding.engine import ShardEngine, run_shard
from repro.sharding.exchange import InProcessExchange
from repro.topology.provider import make_array_provider
from repro.utils.rng import SeedSequenceTree

from tracing import (
    CycleObserver,
    TracedBackend,
    TracedExchange,
    TracedQueue,
    TracedShardEngine,
    TracedViews,
    Tracer,
    summarize,
)

__all__ = ["WORKLOADS", "Workload", "SCALES", "warmup_scale", "quality_decades"]

PARTICLES = 8
GOSSIP_CYCLE = 8
SHARDS = 2
#: Budget no workload can reach, for the ones a cycle cap or horizon ends.
UNREACHABLE = 10**12

#: Per scale: nodes are what the layer split depends on; everything
#: else only sets how long one operation takes.
SCALES = {
    "full": {
        "steady_nodes": 4000, "steady_cycles": 40,
        "churn_nodes": 2000, "churn_cycles": 40, "shift_period": 15,
        "event_nodes": 2000, "event_horizon": 80.0,
        "shard_cycles": 25,
        "sweep_nodes": (32, 64, 128, 256), "sweep_particles": (4, 8),
        "sweep_repetitions": 2, "sweep_cycles": 3,
        "min_repetitions": 5,
    },
    "tiny": {
        "steady_nodes": 128, "steady_cycles": 6,
        "churn_nodes": 128, "churn_cycles": 10, "shift_period": 4,
        "event_nodes": 128, "event_horizon": 12.0,
        "shard_cycles": 4,
        "sweep_nodes": (8, 16), "sweep_particles": (4,),
        "sweep_repetitions": 2, "sweep_cycles": 2,
        "min_repetitions": 2,
    },
}


def warmup_scale(scale: dict) -> dict:
    """Same arrays, an eighth of the simulated time.

    The warm-up lets imports, lazy set-up and workspace allocation
    finish; ``setup_s`` ends with it, so it is kept short enough that
    set-up cost, not steady-state throughput, is what ``setup_s`` shows.
    """
    short = dict(scale)
    for key in ("steady_cycles", "churn_cycles", "shard_cycles"):
        short[key] = max(2, scale[key] // 8)
    short["event_horizon"] = max(2.0, scale["event_horizon"] / 8)
    short["sweep_repetitions"] = 1
    return short


def quality_decades(quality: float) -> float:
    """Decades of error left above 1e-12: ``12 + log10(quality)``.

    The paper's axis is ``log10`` of the final solution quality, which
    crosses zero on these budgets; the benchmark contract compares
    metrics by *relative* change, so the gated form is shifted to stay
    positive.  One unit is still one decade of error.
    """
    return 12.0 + math.log10(max(float(quality), 1e-12))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, dict], object]
    run: Callable[[object, Path], list[RunRecord]]
    check: Callable[[object, list[RunRecord]], list[str]]
    traced: Callable[
        [object, Tracer, Path, list[RunRecord]], tuple[dict, list[str], float]
    ]
    quality: Callable[[list[RunRecord]], float]
    #: Operations in one timed call (1, or the job count of a sweep).
    operations: Callable[[object], int] = lambda inputs: 1
    #: Extra output check too slow for the timed repetitions; run once.
    deep_check: Callable[[object, list[RunRecord]], list[str]] | None = None


def _log_quality(records: list[RunRecord]) -> float:
    return quality_decades(records[0].quality)


def _finite_best(record: RunRecord) -> list[str]:
    if math.isfinite(record.best_value):
        return []
    return [f"best value not finite: {record.best_value!r}"]


def _expect(record: RunRecord, **expected) -> list[str]:
    return [
        f"{field} = {getattr(record, field)!r}, expected {value!r}"
        for field, value in expected.items()
        if getattr(record, field) != value
    ]


def _identical(plain: list[RunRecord], traced: list[RunRecord]) -> list[str]:
    """Tracing must not change what is simulated: records match bit for bit."""
    if [r.to_dict() for r in plain] == [r.to_dict() for r in traced]:
        return []
    return ["traced records differ from the untraced records of the same seed"]


# -- layer metrics shared by the SoA-engine workloads ----------------------------

KERNEL_CALLS = (
    "fused_pso_update", "pbest_fold", "batch_eval", "scatter_min_fold",
    "merge_candidates",
)
TOPOLOGY_CALLS = ("begin_cycle", "gossip_targets", "on_join", "on_crash")


def _call_metrics(summary: dict, layer: str, calls) -> dict[str, float]:
    out = {}
    for call in calls:
        agg = summary.get(f"{layer}.{call}", {"busy_s": 0.0, "calls": 0})
        out[f"{layer}.{call}.busy_s"] = agg["busy_s"]
        out[f"{layer}.{call}.calls"] = agg["calls"]
    return out


def _kernel_topology_metrics(tracer: Tracer, summary: dict) -> dict:
    out = _call_metrics(summary, "kernels", KERNEL_CALLS)
    out.update(_call_metrics(summary, "topology", TOPOLOGY_CALLS))
    out["kernels.batch_eval.points"] = tracer.counts.get("kernels.batch_eval.points", 0)
    out["kernels.scatter_min_fold.adoptions"] = tracer.counts.get(
        "kernels.scatter_min_fold.adoptions", 0
    )
    out["topology.begin_cycle.self_s"] = summary.get(
        "topology.begin_cycle", {"self_s": 0.0}
    )["self_s"]
    return out


def _fastpath_metrics(summary: dict, tracer: Tracer, record: RunRecord,
                      provider) -> dict:
    cycle_ms = [
        (s["end"] - s["start"]) * 1e3
        for s in tracer.spans if s["name"] == "fastpath.cycle"
    ]
    cycle = summary["fastpath.cycle"]
    messages = record.messages.coordination_messages
    out = {
        "topology.exchanges": provider.exchanges,
        "topology.failed_exchanges": provider.failed_exchanges,
        "fastpath.build_s": summary["fastpath.build"]["busy_s"],
        "fastpath.cycle.busy_s": cycle["busy_s"],
        "fastpath.cycle.self_s": cycle["self_s"],
        "fastpath.cycle.calls": cycle["calls"],
        "fastpath.cycle.p50_ms": float(np.percentile(cycle_ms, 50)),
        "fastpath.cycle.p90_ms": float(np.percentile(cycle_ms, 90)),
        "fastpath.messages": messages,
        "fastpath.adoption_ratio": (
            record.messages.coordination_adoptions / messages if messages else 0.0
        ),
        "fastpath.joins": record.joins,
        "fastpath.crashes": record.crashes,
    }
    if record.dynamics is not None:
        out["fastpath.reevaluations"] = record.dynamics["reevaluations"]
    if record.adversary is not None:
        for key in ("false_offers", "filtered", "verifications"):
            out[f"adversary.{key}"] = record.adversary[key]
    return out


def _run_fast_traced(scenario: Scenario, tracer: Tracer, repetition: int):
    """``Session._run_fast`` with proxies at the kernel and topology seams."""
    config = scenario.to_experiment_config()
    backend = TracedBackend(get_backend(scenario.kernel_backend), tracer)
    with tracer.span("fastpath.run") as run_span:
        tree = SeedSequenceTree(config.seed).subtree("rep", repetition)
        provider = TracedViews(
            make_array_provider(scenario.topology, config, tree), tracer
        )
        observer = CycleObserver(tracer, run_span)
        run = run_single_fast(
            config,
            repetition=repetition,
            record_history=scenario.record_history,
            extra_observers=(observer,),
            max_cycles=scenario.max_cycles,
            topology=provider,
            rng_mode=scenario.rng_mode,
            kernel_backend=backend,
            dynamics=scenario.dynamics,
            adversary=scenario.adversary,
        )
        record = RunRecord.from_run_result(run)
    observer.close(run_span["end"])
    return record, provider, observer, run_span


def _traced_fast(scenario: Scenario, tracer: Tracer, _out: Path,
                 plain: list[RunRecord]):
    record, provider, observer, run_span = _run_fast_traced(scenario, tracer, 0)
    summary = summarize(tracer.spans)
    layers = _kernel_topology_metrics(tracer, summary)
    layers.update(_fastpath_metrics(summary, tracer, record, provider))
    failures = _identical(plain, [record])
    # Budget accounting seen from outside: with the budget out of reach
    # every live node spends one gossip cycle of evaluations per cycle.
    spent = observer.live_node_cycles * scenario.gossip_cycle
    if record.stop_reason == "cycle cap" and record.total_evaluations != spent:
        failures.append(
            f"total_evaluations {record.total_evaluations} != "
            f"live node-cycles x r = {spent}"
        )
    return layers, failures, run_span["end"] - run_span["start"]


# -- gossip_steady ---------------------------------------------------------------


def _steady_build(seed: int, scale: dict) -> Scenario:
    nodes, cycles = scale["steady_nodes"], scale["steady_cycles"]
    return Scenario(
        function="sphere", nodes=nodes, particles_per_node=PARTICLES,
        gossip_cycle=GOSSIP_CYCLE,
        total_evaluations=nodes * PARTICLES * cycles,
        engine="fast", topology="newscast", rng_mode="batched", seed=seed,
    )


def _session_run(scenario: Scenario, _out: Path) -> list[RunRecord]:
    return Session(scenario).run().records


def _budget_check(scenario: Scenario, records: list[RunRecord]) -> list[str]:
    record = records[0]
    return _finite_best(record) + _expect(
        record,
        stop_reason="budget",
        cycles=scenario.total_evaluations // (scenario.nodes * GOSSIP_CYCLE),
        total_evaluations=scenario.total_evaluations,
    )


# -- churn_hostile ---------------------------------------------------------------


def _churn_build(seed: int, scale: dict) -> Scenario:
    return Scenario(
        function="sphere", nodes=scale["churn_nodes"],
        particles_per_node=PARTICLES, gossip_cycle=GOSSIP_CYCLE,
        total_evaluations=UNREACHABLE, max_cycles=scale["churn_cycles"],
        engine="fast", topology="newscast", rng_mode="batched", seed=seed,
        churn=ChurnConfig(crash_rate=0.01, join_rate=0.01),
        dynamics=DynamicsSpec(
            kind="shift", period=scale["shift_period"], severity=1.0
        ),
        adversary=AdversarySpec(
            fraction=0.1, behavior="false-best", defense=True
        ),
    )


def _churn_check(scenario: Scenario, records: list[RunRecord]) -> list[str]:
    record = records[0]
    failures = _finite_best(record) + _expect(
        record, stop_reason="cycle cap", cycles=scenario.max_cycles
    )
    ceiling = (scenario.nodes + record.joins) * GOSSIP_CYCLE * record.cycles
    if not 0 < record.total_evaluations <= ceiling:
        failures.append(
            f"total_evaluations {record.total_evaluations} outside (0, {ceiling}]"
        )
    if record.total_evaluations % GOSSIP_CYCLE:
        failures.append("total_evaluations is not a whole number of cycles")
    if record.adversary is None or not math.isfinite(
        record.adversary["final_true_error"]
    ):
        failures.append("no finite adversary final_true_error")
    return failures


def _churn_quality(records: list[RunRecord]) -> float:
    # The believed best may be a poisoned claim; the tally's error is
    # re-evaluated under the true landscape.
    return quality_decades(records[0].adversary["final_true_error"])


# -- async_event -----------------------------------------------------------------


def _event_build(seed: int, scale: dict) -> Scenario:
    return Scenario(
        function="sphere", nodes=scale["event_nodes"],
        particles_per_node=PARTICLES, gossip_cycle=GOSSIP_CYCLE,
        total_evaluations=UNREACHABLE, engine="event", event_backend="fast",
        horizon=scale["event_horizon"],
        transport=TransportSpec(loss_rate=0.05), rng_mode="batched", seed=seed,
    )


def _event_check(scenario: Scenario, records: list[RunRecord]) -> list[str]:
    record = records[0]
    failures = _finite_best(record) + _expect(
        record, stop_reason="horizon", sim_time=scenario.horizon
    )
    # One compute tick of r evaluations per node per (jittered) period.
    transport = scenario.transport
    ticks = scenario.horizon / transport.compute_period
    hi = scenario.nodes * GOSSIP_CYCLE * (ticks + 1)
    lo = scenario.nodes * GOSSIP_CYCLE * (ticks / (1 + transport.clock_jitter) - 1)
    if not lo <= record.total_evaluations <= hi:
        failures.append(
            f"total_evaluations {record.total_evaluations} outside "
            f"[{lo:.0f}, {hi:.0f}]"
        )
    if record.total_evaluations % GOSSIP_CYCLE:
        failures.append("total_evaluations is not a whole number of ticks")
    return failures


def _traced_event(scenario: Scenario, tracer: Tracer, _out: Path,
                  plain: list[RunRecord]):
    """``Session._run_event`` with the engine's backend/provider proxied.

    The cohort engine takes no backend or provider argument, so the
    proxies replace its public ``backend`` / ``provider`` attributes
    after construction.  Its gossip cohorts call the module-level
    ``scatter_min_fold`` directly, which no outside proxy can see:
    ``kernels.scatter_min_fold.*`` reads 0 on this workload.
    """
    t0 = time.perf_counter()
    with tracer.span("eventpath.build"):
        engine = CohortEventEngine(
            Session(scenario).deployment_config(),
            repetition=0,
            window=scenario.event_window,
            rng_mode=scenario.rng_mode,
            dynamics=scenario.dynamics,
            adversary=scenario.adversary,
        )
        engine.backend = TracedBackend(engine.backend, tracer)
        engine.provider = TracedViews(engine.provider, tracer)
        engine.provider.attach_kernels(engine.backend, engine.workspace)
    result = tracer.call("eventpath.run", engine.run, until=scenario.horizon)
    record = RunRecord.from_deployment_result(result)
    elapsed = time.perf_counter() - t0
    summary = summarize(tracer.spans)
    layers = _kernel_topology_metrics(tracer, summary)
    run_s = summary["eventpath.run"]["busy_s"]
    layers.update({
        "topology.exchanges": engine.provider.exchanges,
        "topology.failed_exchanges": engine.provider.failed_exchanges,
        "eventpath.build_s": summary["eventpath.build"]["busy_s"],
        "eventpath.run.busy_s": run_s,
        "eventpath.sim_s_per_s": record.sim_time / run_s,
        "eventpath.transport_sent": record.messages.transport_sent,
        "eventpath.newscast_exchanges": record.messages.newscast_exchanges,
    })
    return layers, _identical(plain, [record]), elapsed


# -- sharded_pair ----------------------------------------------------------------


def _shard_build(seed: int, scale: dict) -> Scenario:
    nodes, cycles = scale["steady_nodes"], scale["shard_cycles"]
    return _steady_build(seed, scale).with_(
        total_evaluations=nodes * PARTICLES * cycles
    )


def _shard_run(scenario: Scenario, _out: Path) -> list[RunRecord]:
    return Session(scenario).run(policy=ExecutionPolicy(shards=SHARDS)).records


def _traced_shards(scenario: Scenario, tracer: Tracer, _out: Path,
                   plain: list[RunRecord]):
    """The thread fabric of ``run_sharded`` with proxies at every seam.

    ``run_shard`` returns per-shard fragments, not a record, so identity
    with the untraced run is checked on what the coordinator builds the
    record from: fragment 0 for the barrier-synchronized fields, sums
    for the tallies.  As the plain baseline every parallel figure is
    stated against, one unsharded run of the same scenario is timed too.
    """
    config = scenario.to_experiment_config()
    plan = ShardPlan(scenario.nodes, SHARDS)
    backend = TracedBackend(get_backend(scenario.kernel_backend), tracer)
    exchange = TracedExchange(InProcessExchange(SHARDS), tracer)
    cap = Session(scenario).max_cycles()
    t0 = time.perf_counter()
    with tracer.span("sharding.build"):
        engines = [
            TracedShardEngine(
                ShardEngine(
                    config, 0, plan, shard,
                    topology=scenario.topology, rng_mode=scenario.rng_mode,
                    kernel_backend=backend,
                    record_history=scenario.record_history,
                ),
                tracer,
            )
            for shard in range(SHARDS)
        ]
    fragments: list[dict | None] = [None] * SHARDS
    errors: list[BaseException] = []

    def work(shard: int) -> None:
        try:
            fragments[shard] = run_shard(engines[shard], exchange, cap)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(shard,), name=f"shard-{shard}")
        for shard in range(SHARDS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    sharded_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    single = Session(scenario).run().records[0]
    single_s = time.perf_counter() - t0

    def total(key: str) -> int:
        return sum(fragment[key] for fragment in fragments)

    record, frag0 = plain[0], fragments[0]
    traced_view = {
        "best_value": frag0["best_value"],
        "cycles": frag0["cycles"],
        "stop_reason": frag0["stop_reason"],
        "total_evaluations": total("evaluations"),
        "newscast_exchanges": total("exchanges"),
        "coordination_messages": total("messages_sent"),
        "coordination_adoptions": total("adoptions"),
    }
    plain_view = {
        "best_value": record.best_value,
        "cycles": record.cycles,
        "stop_reason": record.stop_reason,
        "total_evaluations": record.total_evaluations,
        "newscast_exchanges": record.messages.newscast_exchanges,
        "coordination_messages": record.messages.coordination_messages,
        "coordination_adoptions": record.messages.coordination_adoptions,
    }
    failures = [
        f"traced {key} = {traced_view[key]!r}, untraced {plain_view[key]!r}"
        for key in traced_view if traced_view[key] != plain_view[key]
    ]
    failures += [
        f"sharded {field} differs from the unsharded baseline"
        for field in ("total_evaluations", "cycles", "stop_reason")
        if getattr(record, field) != getattr(single, field)
    ]
    if record.messages.newscast_exchanges != single.messages.newscast_exchanges:
        failures.append(
            "sharded newscast_exchanges differ from the unsharded baseline"
        )

    summary = summarize(tracer.spans)
    layers = _kernel_topology_metrics(tracer, summary)
    layers["sharding.build_s"] = summary["sharding.build"]["busy_s"]
    for leg in ("begin_cycle", "exchange_apply", "finalize_cycle", "resolve"):
        per_shard = [
            sum(
                s["end"] - s["start"] for s in tracer.spans
                if s["name"] == f"sharding.{leg}" and s["shard"] == shard
            )
            for shard in range(SHARDS)
        ]
        layers[f"sharding.{leg}.busy_s"] = sum(per_shard)
        layers[f"sharding.{leg}.busy_max_s"] = max(per_shard)
    layers.update({
        "sharding.exchange.post.busy_s": summary["sharding.exchange.post"]["busy_s"],
        "sharding.exchange.collect.wait_s":
            summary["sharding.exchange.collect"]["busy_s"],
        "sharding.exchange.posts": tracer.counts["sharding.exchange.posts"],
        "sharding.exchange.payload_bytes":
            tracer.counts["sharding.exchange.payload_bytes"],
        "sharding.windows": frag0["cycles"],
        "sharding.node_cycles_per_s":
            total("node_cycles_per_second") / SHARDS,
        # Base: one unsharded Session.run of the same scenario, same seed.
        "sharding.speedup_vs_single": single_s / sharded_s,
    })
    return layers, failures, sharded_s


# -- sweep_spool -----------------------------------------------------------------


def _sweep_build(seed: int, scale: dict) -> list[Scenario]:
    base = Scenario(
        function="sphere", gossip_cycle=GOSSIP_CYCLE,
        total_evaluations=UNREACHABLE, max_cycles=scale["sweep_cycles"],
        engine="fast", rng_mode="batched",
        repetitions=scale["sweep_repetitions"], seed=seed,
    )
    return list(
        Session(base).scenarios(
            nodes=scale["sweep_nodes"],
            particles_per_node=scale["sweep_particles"],
        )
    )


def _sweep_jobs(scenarios: list[Scenario]) -> int:
    return sum(scenario.repetitions for scenario in scenarios)


def _drain(scenarios: list[Scenario], queue: JobQueue) -> list[RunRecord]:
    """submit → in-process worker until drained → collect, in sweep order."""
    for job in jobs_for_sweep(scenarios):
        queue.submit(job)
    run_worker(queue)
    return [
        record
        for result in collect_from_spool(queue, scenarios)
        for record in result.records
    ]


def _sweep_run(scenarios: list[Scenario], out: Path) -> list[RunRecord]:
    spool = tempfile.mkdtemp(prefix="spool-", dir=out)
    try:
        return _drain(scenarios, JobQueue(spool))
    finally:
        shutil.rmtree(spool)


def _sweep_check(scenarios: list[Scenario], records: list[RunRecord]) -> list[str]:
    failures = []
    if len(records) != _sweep_jobs(scenarios):
        failures.append(
            f"{len(records)} records for {_sweep_jobs(scenarios)} jobs"
        )
    expected = (
        (scenario, rep)
        for scenario in scenarios for rep in range(scenario.repetitions)
    )
    for (scenario, rep), record in zip(expected, records):
        bad = _finite_best(record) + _expect(
            record,
            stop_reason="cycle cap",
            cycles=scenario.max_cycles,
            total_evaluations=(
                scenario.nodes * GOSSIP_CYCLE * scenario.max_cycles
            ),
        )
        if bad:
            failures.append(
                f"n={scenario.nodes} k={scenario.particles_per_node} "
                f"rep={rep}: {'; '.join(bad)}"
            )
    return failures


def _sweep_deep_check(scenarios: list[Scenario],
                      records: list[RunRecord]) -> list[str]:
    """Every spooled record equals the one ``execute_job`` returns directly."""
    direct = [
        record.to_dict()
        for job in jobs_for_sweep(scenarios)
        for record in execute_job(job)
    ]
    return [
        f"spooled record {i} differs from execute_job's"
        for i, (a, b) in enumerate(zip(direct, records))
        if a != b.to_dict()
    ]


def _sweep_quality(records: list[RunRecord]) -> float:
    return float(np.median([quality_decades(r.quality) for r in records]))


def _traced_sweep(scenarios: list[Scenario], tracer: Tracer, out: Path,
                  plain: list[RunRecord]):
    spool = tempfile.mkdtemp(prefix="spool-", dir=out)
    try:
        with tracer.span("sweep.drain") as drain_span:
            records = _drain(scenarios, TracedQueue(spool, tracer))
        failed = len(JobQueue(spool).failed_ids())
    finally:
        shutil.rmtree(spool)

    # What happens *inside* execute_job cannot be bracketed from out
    # here, so after the drain every job is run once more through the
    # same public calls with the proxies in place: its engine build and
    # kernel / topology time are this probe's, its record must equal
    # the spooled one.
    jobs = jobs_for_sweep(scenarios)
    probed = []
    for job in jobs:
        scenario = tracer.call("scenario.from_dict", Scenario.from_dict, job.scenario)
        probed.append(_run_fast_traced(scenario, tracer, job.repetitions[0])[0])
    with tracer.span("scenario.record_roundtrip"):
        for record in records:
            RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))

    summary = summarize(tracer.spans)
    layers = _kernel_topology_metrics(tracer, summary)
    layers.update(_call_metrics(
        summary, "spool",
        ("submit", "claim", "heartbeat", "complete", "worker_status", "load_result"),
    ))
    drain_s = summary["sweep.drain"]["busy_s"]
    execute_s = tracer.counts.get("jobs.execute.busy_s", 0.0)
    layers.update({
        # From file sizes; a few bytes vary with the pid and float reprs
        # the spool writes, so this one is reported, not compared exactly.
        "spool.written_kb": tracer.counts["spool.bytes_written"] / 1e3,
        "spool.failed": failed,
        "jobs.execute.busy_s": execute_s,
        "jobs.execute.calls": tracer.counts.get("jobs.execute.calls", 0),
        "jobs.overhead_ms_per_job": (drain_s - execute_s) * 1e3 / len(jobs),
        "scenario.from_dict.busy_s": summary["scenario.from_dict"]["busy_s"],
        "scenario.from_dict.calls": summary["scenario.from_dict"]["calls"],
        "scenario.record_roundtrip.busy_s":
            summary["scenario.record_roundtrip"]["busy_s"],
        "fastpath.build_s": summary["fastpath.build"]["busy_s"],
        "fastpath.cycle.busy_s": summary["fastpath.cycle"]["busy_s"],
        "fastpath.cycle.self_s": summary["fastpath.cycle"]["self_s"],
        "fastpath.cycle.calls": summary["fastpath.cycle"]["calls"],
    })
    failures = _identical(plain, records) + _identical(plain, probed)
    if failed:
        failures.append(f"{failed} job(s) dead-lettered")
    return layers, failures, drain_span["end"] - drain_span["start"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gossip_steady", _steady_build, _session_run, _budget_check,
            _traced_fast, _log_quality,
        ),
        Workload(
            "churn_hostile", _churn_build, _session_run, _churn_check,
            _traced_fast, _churn_quality,
        ),
        Workload(
            "async_event", _event_build, _session_run, _event_check,
            _traced_event, _log_quality,
        ),
        Workload(
            "sweep_spool", _sweep_build, _sweep_run, _sweep_check,
            _traced_sweep, _sweep_quality,
            operations=_sweep_jobs, deep_check=_sweep_deep_check,
        ),
        Workload(
            "sharded_pair", _shard_build, _shard_run, _budget_check,
            _traced_shards, _log_quality,
        ),
    )
}
