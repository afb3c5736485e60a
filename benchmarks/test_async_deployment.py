"""Benchmark: asynchronous deployment vs cycle-driven simulation.

The library's fidelity claim beyond the paper's evaluation: the same
configuration run (a) in the paper's lock-step cycle model and (b) on
an event-driven network with latency, loss and clock jitter lands in
the same quality regime.  This bench times the async run and asserts
the regime equivalence plus the loss-only-slows-diffusion property.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_report
from repro.analysis.compare import compare_systems
from repro.analysis.tables import format_paper_table, format_value
from repro.deployment import AsyncRuntime, DeploymentConfig
from repro.scenario import Scenario, Session

N, K, BUDGET = 16, 8, 1500


def run_comparison():
    cycle_q = []
    for rep in range(3):
        cfg = Scenario(
            function="sphere", nodes=N, particles_per_node=K,
            total_evaluations=N * BUDGET, gossip_cycle=8,
            repetitions=1, seed=801,
        )
        cycle_q.append(Session(cfg).run_one(rep).quality)

    async_q = []
    lossy_q = []
    for seed, sink in ((801, async_q), (802, async_q), (803, async_q),
                       (811, lossy_q), (812, lossy_q), (813, lossy_q)):
        cfg = DeploymentConfig(
            function="sphere", nodes=N, particles_per_node=K,
            budget_per_node=BUDGET, evals_per_tick=8,
            compute_period=1.0, gossip_period=1.0, newscast_period=2.0,
            loss_rate=0.25 if sink is lossy_q else 0.0,
            seed=seed,
        )
        sink.append(AsyncRuntime(cfg).run(until=100_000.0).quality)
    return {"cycle": cycle_q, "async": async_q, "async+25%loss": lossy_q}


def test_async_vs_cycle_regime(benchmark, report_dir):
    data = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    rows = [
        {
            "function": name,
            "avg": format_value(float(np.mean(qs))),
            "min": format_value(float(np.min(qs))),
            "max": format_value(float(np.max(qs))),
        }
        for name, qs in data.items()
    ]
    report = format_paper_table(
        rows,
        columns=("function", "avg", "min", "max"),
        title="Async deployment vs cycle-driven (sphere, n=16, k=8, 1500 evals/node)",
    )
    save_report(report_dir, "async_deployment", report)

    # Regime equivalence: medians within a few orders on a scale where
    # config changes move results by tens of orders.
    cmp_async = compare_systems(data["cycle"], data["async"])
    assert abs(cmp_async.advantage_orders) < 10.0

    # Loss only slows diffusion — the lossy deployment still computes.
    assert all(np.isfinite(q) for q in data["async+25%loss"])
    cmp_lossy = compare_systems(data["async"], data["async+25%loss"])
    assert abs(cmp_lossy.advantage_orders) < 10.0
