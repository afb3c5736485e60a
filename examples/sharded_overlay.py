#!/usr/bin/env python
"""One overlay, many processes: sharded simulation of a large network.

A single simulated NEWSCAST+PSO network is *partitioned by node id*
over shard workers.  Each shard runs the vectorized SoA engine on its
block of nodes; boundary gossip and cross-shard NEWSCAST exchanges
travel through a windowed, barriered message fabric between one worker
process per shard — pipes by default, or with ``--spool`` a spool
directory, where a killed worker is respawned and deterministically
replays the message log (over pipes a killed worker fails the run at
once, under its own name).

The execution surface is one value: ``ExecutionPolicy(shards=...)``
handed to ``Session.run`` — the scenario itself stays a pure
*what-to-simulate* description.

Run::

    python examples/sharded_overlay.py           # n = 100 000 over 4 shards
    python examples/sharded_overlay.py --tiny    # smoke-test parameters
    python examples/sharded_overlay.py --report benchmarks/BENCH_6.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro import Scenario
from repro.sharding import run_sharded_detailed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test parameters"
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard worker processes (default: 4, tiny: 2)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="network size n (default: 100000, tiny: 512)",
    )
    parser.add_argument(
        "--spool", default=None,
        help="run the shard fabric over this spool directory instead "
        "of pipes and keep it afterwards (crash replay / CI artifacts)",
    )
    parser.add_argument(
        "--report", default=None,
        help="write per-shard throughput JSON (BENCH_6 schema) here",
    )
    parser.add_argument(
        "--min-throughput", type=float, default=None,
        help="fail (exit 1) if any shard falls below this many "
        "node-cycles per second — the CI regression gate",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    shards = args.shards or (2 if args.tiny else 4)
    nodes = args.nodes or (512 if args.tiny else 100_000)
    cycles = 5 if args.tiny else 15

    scenario = Scenario(
        function="sphere",
        nodes=nodes,
        particles_per_node=8,
        total_evaluations=nodes * 8 * cycles,
        gossip_cycle=8,
        engine="fast",          # the per-shard substrate
        repetitions=1,
        seed=42,
    )

    print(f"simulating one {nodes}-node overlay over {shards} shard "
          f"process(es)...")
    record, fragments = run_sharded_detailed(
        scenario, repetition=0, shards=shards, spool=args.spool
    )

    print(f"configuration : {scenario.describe()}")
    print(f"stop          : {record.stop_reason} after {record.cycles} "
          f"cycles, {record.total_evaluations} evaluations")
    print(f"best value    : {record.best_value:.6e} "
          f"(quality {record.quality:.3e})")
    print("per-shard throughput:")
    for fragment in fragments:
        print(f"  shard {fragment['shard']}: {fragment['nodes']:>7} nodes, "
              f"{fragment['elapsed']:.2f}s, "
              f"{fragment['node_cycles_per_second']:,.0f} node-cycles/s")

    if args.report:
        report = {
            "schema": "repro-shard-bench/1",
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
            },
            "parameters": {
                "nodes": nodes,
                "shards": shards,
                "particles": scenario.particles_per_node,
                "cycles": record.cycles,
                "tiny": args.tiny,
            },
            "result": {
                "best_value": record.best_value,
                "quality": record.quality,
                "total_evaluations": record.total_evaluations,
                "stop_reason": record.stop_reason,
            },
            "shards": [
                {
                    "shard": f["shard"],
                    "nodes": f["nodes"],
                    "elapsed_s": f["elapsed"],
                    "node_cycles_per_second": f["node_cycles_per_second"],
                }
                for f in fragments
            ],
        }
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {path}")

    if args.min_throughput is not None:
        slow = [
            f for f in fragments
            if f["node_cycles_per_second"] < args.min_throughput
        ]
        if slow:
            for f in slow:
                print(
                    f"FAIL shard {f['shard']}: "
                    f"{f['node_cycles_per_second']:,.0f} node-cycles/s "
                    f"< gate {args.min_throughput:,.0f}",
                    file=sys.stderr,
                )
            return 1
        print(f"throughput gate passed "
              f"(every shard >= {args.min_throughput:,.0f} node-cycles/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
