"""Machine-readable micro-benchmark runner.

Times the simulator's hot paths with plain ``perf_counter`` loops (no
pytest dependency) and emits a JSON report so the performance
trajectory of the repo can be tracked PR-over-PR::

    PYTHONPATH=src python benchmarks/run_bench.py                 # full
    PYTHONPATH=src python benchmarks/run_bench.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --min-speedup 15
    PYTHONPATH=src python benchmarks/run_bench.py --min-newscast-speedup 16
    PYTHONPATH=src python benchmarks/run_bench.py -o BENCH_5.json

Schema of the emitted file::

    {
      "schema": "repro-bench/4",
      "environment": {"python": ..., "numpy": ..., "machine": ...},
      "parameters": {"nodes": ..., "particles": ..., "rounds": ...},
      "benches": {"<name>": {"median_s": ..., "rounds": N}},
      "derived": {"fast_vs_reference_speedup": ...,
                  "speedup_grid": {"newscast_n1000": ..., ...},
                  "event_speedup": ...,
                  "join_slowdown_large_vs_small": ...}
    }

``speedup_grid`` holds the topology grid of the fast engine over the
reference engine.  The reference timing per (n, k) point is measured
once and shared across topologies, so cells are commensurable.
``--min-newscast-speedup`` gates its NEWSCAST cell at n = ``--nodes``.

The headline number is ``fast_vs_reference_speedup``: wall-clock ratio
of one reference-engine cycle to one fast-engine cycle on the paper's
default scenario shape (``Scenario()`` defaults: k = r = 8) at
n = 1000 — **with the real NEWSCAST overlay simulated on both
engines** and the fast engine in its recommended ``rng_mode="batched"``
regime.  PR 1's oracle-sampling kernel measured 19–20x (BENCH_1/2,
k = 16); PR 3 turned the oracle into real array-backed overlays and
regained the margin via the packed-key merge kernel, batched draws and
the SoA capacity work — BENCH_3 records ≥ 15x with overlays enabled,
and ``--min-speedup`` turns that floor into a CI gate.
``speedup_grid`` tracks additional (n, topology) points, and
``join_slowdown_large_vs_small`` guards the churn-at-scale work: a
join into a large network must not cost O(n) more than a join into a
small one.

``event_speedup`` is PR 4's number: wall-clock ratio of simulating the
same asynchronous deployment horizon (n = 1000, default timer periods)
on the per-node :class:`~repro.deployment.runtime.AsyncRuntime` versus
the cohort-batched :class:`~repro.core.eventpath.CohortEventEngine`.
Engine construction is excluded, like the cycle benches.  Measured
~8-9x on the development machine; ``--min-event-speedup`` gates it at
5x in CI.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.eventpath import CohortEventEngine
from repro.core.fastpath import FastEngine
from repro.core.runner import _build_network
from repro.deployment.runtime import AsyncRuntime, DeploymentConfig
from repro.functions.base import get_function
from repro.pso.swarm import Swarm
from repro.simulator.engine import CycleDrivenEngine
from repro.utils.config import ExperimentConfig, PSOConfig
from repro.utils.rng import SeedSequenceTree

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_5.json"

#: Topology models of the speedup grid.
GRID_TOPOLOGIES = ("newscast", "oracle", "ring", "kregular")


def _time(fn, rounds: int, warmup: int = 1) -> dict[str, float]:
    """Median-of-rounds timing; mean/stddev reported for the record."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "mean_s": statistics.fmean(samples),
        "stddev_s": statistics.pstdev(samples),
        "median_s": statistics.median(samples),
        "rounds": rounds,
    }


def scenario_config(nodes: int, particles: int) -> ExperimentConfig:
    """The bench scenario: paper-default shape, budget beyond reach."""
    return ExperimentConfig(
        function="sphere",
        nodes=nodes,
        particles_per_node=particles,
        total_evaluations=10**9,
        gossip_cycle=particles,
        seed=1,
    )


def fast_engine(config: ExperimentConfig, topology: str) -> FastEngine:
    return FastEngine(config, topology=topology, rng_mode="batched")


def reference_engine(config: ExperimentConfig) -> CycleDrivenEngine:
    tree = SeedSequenceTree(config.seed).subtree("rep", 0)
    network, _ = _build_network(config, get_function(config.function), tree)
    return CycleDrivenEngine(network, rng=tree.rng("engine"))


def bench_engine_pair(
    benches: dict, nodes: int, particles: int, topology: str,
    rounds: int, ref_rounds: int, remeasure: bool = False,
) -> float:
    """Time one (fast, reference) cycle pair; returns the speedup.

    The reference timing per ``(n, k)`` is measured once and reused
    for every topology cell, so all grid cells share one denominator.
    """
    config = scenario_config(nodes, particles)
    fast = fast_engine(config, topology)
    fast_key = f"fast_cycle_{topology}_n{nodes}_k{particles}"
    benches[fast_key] = _time(fast.run_one_cycle, rounds, warmup=3)

    ref_key = f"reference_cycle_n{nodes}_k{particles}"
    if ref_key not in benches or remeasure:
        reference = reference_engine(config)
        benches[ref_key] = _time(lambda: reference.run(1), ref_rounds, warmup=1)
    return benches[ref_key]["median_s"] / benches[fast_key]["median_s"]


def event_bench_point(nodes: int, quick: bool) -> tuple[int, float]:
    """The event bench's (nodes, horizon) — one source for the main
    grid and the gate's re-measure, so they stay commensurable."""
    return (200, 10.0) if quick else (nodes, 30.0)


def event_config(nodes: int) -> DeploymentConfig:
    """The event bench scenario: default timer periods, budget beyond
    reach (the horizon is the stop condition)."""
    return DeploymentConfig(
        function="sphere",
        nodes=nodes,
        particles_per_node=8,
        budget_per_node=10**6,
        evals_per_tick=8,
        seed=1,
    )


def _time_rebuild(make_engine, run, rounds: int, warmup: int = 1) -> dict:
    """Like :func:`_time` for one-shot runs: a fresh engine per round
    (running a horizon consumes the engine), construction untimed."""
    samples = []
    for i in range(warmup + rounds):
        engine = make_engine()
        t0 = time.perf_counter()
        run(engine)
        if i >= warmup:
            samples.append(time.perf_counter() - t0)
    return {
        "mean_s": statistics.fmean(samples),
        "stddev_s": statistics.pstdev(samples),
        "median_s": statistics.median(samples),
        "rounds": rounds,
    }


def bench_event_pair(
    benches: dict, nodes: int, horizon: float,
    rounds: int, ref_rounds: int, remeasure: bool = False,
) -> float:
    """Time one (cohort, per-node) asynchronous pair; returns the speedup.

    Both engines simulate ``horizon`` seconds of the same deployment
    (n nodes, default 1 s compute / 10 s protocol timers); construction
    is excluded from the timing, like the cycle benches.
    """
    config = event_config(nodes)
    fast_key = f"event_cohort_h{horizon:g}_n{nodes}"
    benches[fast_key] = _time_rebuild(
        lambda: CohortEventEngine(config, rng_mode="batched"),
        lambda engine: engine.run(until=horizon),
        rounds,
    )
    ref_key = f"event_async_h{horizon:g}_n{nodes}"
    if ref_key not in benches or remeasure:
        benches[ref_key] = _time_rebuild(
            lambda: AsyncRuntime(config),
            lambda runtime: runtime.run(until=horizon),
            ref_rounds,
        )
    return benches[ref_key]["median_s"] / benches[fast_key]["median_s"]


def bench_churn_joins(benches: dict, quick: bool) -> float:
    """Join cost, small vs large network: the capacity-doubling guard.

    Before PR 3 every join concatenated all SoA arrays — O(n·k·d) per
    join — so a join into a 16x larger network cost ~16x more.  With
    capacity doubling (joins append rows) the amortized per-join cost is
    O(k·d): the large/small ratio should sit near 1, and the gate in
    the CI job fails the bench if it drifts above 4.
    """
    small_n, large_n = (128, 1024) if quick else (256, 4096)
    joins = 200 if quick else 400

    def join_burst(nodes: int) -> float:
        engine = FastEngine(
            scenario_config(nodes, 8), topology="newscast", rng_mode="batched"
        )
        t0 = time.perf_counter()
        for _ in range(joins):
            engine._join(1)
        return (time.perf_counter() - t0) / joins

    small = join_burst(small_n)
    large = join_burst(large_n)
    benches[f"churn_join_n{small_n}"] = {"median_s": small, "rounds": joins}
    benches[f"churn_join_n{large_n}"] = {"median_s": large, "rounds": joins}
    return large / small


def run_benches(
    nodes: int, particles: int, rounds: int, ref_rounds: int, quick: bool,
) -> dict:
    benches: dict[str, dict] = {}

    f = get_function("sphere")
    pts = f.sample_uniform(np.random.default_rng(0), 1000)
    benches["sphere_batch_1k"] = _time(lambda: f.batch(pts), rounds)

    swarm = Swarm(f, PSOConfig(particles=16), np.random.default_rng(0))
    benches["swarm_step_cycle_k16"] = _time(swarm.step_cycle, rounds)

    # Topology grid against the shared reference denominator.
    grid: dict[str, float] = {
        f"{topology}_n{nodes}": round(
            bench_engine_pair(
                benches, nodes, particles, topology, rounds, ref_rounds
            ),
            2,
        )
        for topology in GRID_TOPOLOGIES
    }

    # Headline point: real NEWSCAST overlay on both engines —
    # comparable with BENCH_3/4's headline.
    headline = grid[f"newscast_n{nodes}"]

    # A larger-n NEWSCAST point tracking how the kernels scale.
    big = nodes if quick else 4 * nodes
    if big != nodes:
        grid[f"newscast_n{big}"] = round(
            bench_engine_pair(
                benches, big, particles, "newscast",
                max(3, rounds // 4), max(2, ref_rounds // 2),
            ),
            2,
        )

    # Event engines: same asynchronous deployment horizon on the
    # per-node heap runtime vs the cohort-batched SoA engine.
    event_nodes, event_horizon = event_bench_point(nodes, quick)
    event_speedup = bench_event_pair(
        benches, event_nodes, event_horizon,
        rounds=max(3, rounds // 4), ref_rounds=max(2, ref_rounds // 2),
    )

    join_ratio = bench_churn_joins(benches, quick)

    return {
        "schema": "repro-bench/4",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "parameters": {
            "nodes": nodes,
            "particles": particles,
            "rounds": rounds,
            "reference_rounds": ref_rounds,
            "quick": quick,
        },
        "benches": benches,
        "derived": {
            "fast_vs_reference_speedup": round(headline, 2),
            "speedup_grid": grid,
            "event_speedup": round(event_speedup, 2),
            "join_slowdown_large_vs_small": round(join_ratio, 2),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "-o", "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"JSON report path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small scenario + few rounds (CI smoke): n=200, 5 rounds",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero if the headline fast-vs-reference speedup "
             "(real NEWSCAST overlays on both engines) falls below this",
    )
    parser.add_argument(
        "--min-event-speedup", type=float, default=None,
        help="exit non-zero if the cohort-batched event engine's speedup "
             "over the per-node AsyncRuntime falls below this",
    )
    parser.add_argument(
        "--max-join-ratio", type=float, default=None,
        help="exit non-zero if a join into the large network costs more "
             "than this multiple of a join into the small one",
    )
    parser.add_argument(
        "--min-newscast-speedup", type=float, default=None,
        help="exit non-zero if the NEWSCAST grid point falls below this "
             "speedup over the reference engine",
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--particles", type=int, default=8)
    args = parser.parse_args(argv)

    if args.quick:
        nodes, rounds, ref_rounds = args.nodes or 200, 5, 2
    else:
        nodes, rounds, ref_rounds = args.nodes or 1000, 20, 5

    report = run_benches(nodes, args.particles, rounds, ref_rounds, args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    for name, stats in report["benches"].items():
        print(f"{name:45s} {1e3 * stats['median_s']:10.3f} ms (median)")
    derived = report["derived"]
    print(f"{'fast_vs_reference_speedup':45s} "
          f"{derived['fast_vs_reference_speedup']:10.2f} x")
    for point, ratio in derived["speedup_grid"].items():
        print(f"{'  grid ' + point:45s} {ratio:10.2f} x")
    print(f"{'event_speedup':45s} {derived['event_speedup']:10.2f} x")
    print(f"{'join_slowdown_large_vs_small':45s} "
          f"{derived['join_slowdown_large_vs_small']:10.2f} x")
    print(f"report written to {args.output}", file=sys.stderr)

    failed = False
    if (args.min_speedup is not None
            and derived["fast_vs_reference_speedup"] < args.min_speedup):
        # One re-measure with more rounds before failing, so a transient
        # load spike on a shared runner doesn't sink the gate (same
        # rationale as benchmarks/test_micro.py's speedup floor).
        retry = bench_engine_pair(
            report["benches"], nodes, args.particles, "newscast",
            rounds * 2, ref_rounds * 2, remeasure=True,
        )
        derived["fast_vs_reference_speedup"] = round(retry, 2)
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"re-measured headline: {retry:.2f}x", file=sys.stderr)
        if retry < args.min_speedup:
            print(f"FAIL: speedup {retry:.2f}x "
                  f"< required {args.min_speedup}x", file=sys.stderr)
            failed = True
    if (args.min_event_speedup is not None
            and derived["event_speedup"] < args.min_event_speedup):
        # Same transient-load-spike tolerance as the cycle gate: one
        # re-measure with more rounds before failing the build.
        event_nodes, event_horizon = event_bench_point(nodes, args.quick)
        retry = bench_event_pair(
            report["benches"], event_nodes, event_horizon,
            rounds=6, ref_rounds=4, remeasure=True,
        )
        derived["event_speedup"] = round(retry, 2)
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"re-measured event speedup: {retry:.2f}x", file=sys.stderr)
        if retry < args.min_event_speedup:
            print(f"FAIL: event speedup {retry:.2f}x "
                  f"< required {args.min_event_speedup}x", file=sys.stderr)
            failed = True
    if (args.max_join_ratio is not None
            and derived["join_slowdown_large_vs_small"] > args.max_join_ratio):
        print(f"FAIL: join ratio {derived['join_slowdown_large_vs_small']} "
              f"> allowed {args.max_join_ratio}", file=sys.stderr)
        failed = True
    newscast_key = f"newscast_n{nodes}"
    if (args.min_newscast_speedup is not None
            and derived["speedup_grid"][newscast_key] < args.min_newscast_speedup):
        # Same transient-load-spike tolerance as the headline gate: one
        # re-measure with more rounds before failing.
        retry = round(bench_engine_pair(
            report["benches"], nodes, args.particles, "newscast",
            rounds * 2, ref_rounds * 2, remeasure=True,
        ), 2)
        derived["speedup_grid"][newscast_key] = retry
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"re-measured NEWSCAST point: {retry:.2f}x", file=sys.stderr)
        if retry < args.min_newscast_speedup:
            print(f"FAIL: NEWSCAST speedup {retry:.2f}x "
                  f"< required {args.min_newscast_speedup}x", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
