"""Command-line runner for asynchronous deployments.

Usage::

    python -m repro.deployment --function sphere --nodes 32 \
        --budget 2000 --loss 0.2 --crash-rate 0.02 --join-rate 0.02

Prints a progress narration plus the final result summary.
"""

from __future__ import annotations

import argparse

from repro.deployment.runtime import AsyncRuntime, DeploymentConfig

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.deployment",
        description="Run the framework on an asynchronous (event-driven) network.",
    )
    parser.add_argument("--function", default="sphere")
    parser.add_argument("--nodes", type=int, default=32)
    parser.add_argument("--particles", type=int, default=8)
    parser.add_argument("--budget", type=int, default=2000,
                        help="evaluations per node")
    parser.add_argument("--evals-per-tick", type=int, default=8)
    parser.add_argument("--gossip-period", type=float, default=1.0)
    parser.add_argument("--newscast-period", type=float, default=2.0)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="message loss probability")
    parser.add_argument("--latency", type=float, nargs=2, default=(0.05, 0.5),
                        metavar=("MIN", "MAX"))
    parser.add_argument("--crash-rate", type=float, default=0.0,
                        help="expected crashes per second (Poisson)")
    parser.add_argument("--join-rate", type=float, default=0.0,
                        help="expected joins per second (Poisson)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="stop at this solution quality")
    parser.add_argument("--horizon", type=float, default=100_000.0,
                        help="simulated-seconds cap")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = DeploymentConfig(
        function=args.function,
        nodes=args.nodes,
        particles_per_node=args.particles,
        budget_per_node=args.budget,
        evals_per_tick=args.evals_per_tick,
        gossip_period=args.gossip_period,
        newscast_period=args.newscast_period,
        loss_rate=args.loss,
        latency_min=args.latency[0],
        latency_max=args.latency[1],
        crash_rate=args.crash_rate,
        join_rate=args.join_rate,
        quality_threshold=args.threshold,
        seed=args.seed,
    )
    result = AsyncRuntime(config).run(until=args.horizon)

    print(f"function            : {args.function}")
    print(f"stop reason         : {result.stop_reason}")
    print(f"solution quality    : {result.quality:.6e}")
    print(f"total evaluations   : {result.total_evaluations}")
    print(f"simulated time      : {result.sim_time:.1f}s")
    if result.threshold_time is not None:
        print(f"threshold reached at: {result.threshold_time:.1f}s")
    print(f"messages sent       : {result.messages.transport_sent}")
    print(f"optima adopted      : {result.messages.coordination_adoptions}")
    print(f"churn               : {result.crashes} crashes, {result.joins} joins")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
