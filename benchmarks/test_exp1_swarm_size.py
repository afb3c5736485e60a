"""Benchmark: regenerate Table 1 / Figure 1 (quality vs swarm size).

Runs experiment 1 at smoke scale, checks the paper's shape claims on
the measured data, and emits the paper-style report.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_report
from repro.experiments import exp1_swarm_size
from repro.experiments.common import run
from repro.utils.numerics import safe_log10


def _mean_logq(data, function, nodes, particles):
    for res in data.entries:
        point = res.scenario
        if (
            point.function == function
            and point.nodes == nodes
            and point.particles_per_node == particles
        ):
            return float(np.mean(safe_log10(np.maximum(res.qualities(), 0.0))))
    raise AssertionError(f"missing point {function} n={nodes} k={particles}")


def test_exp1_swarm_size(benchmark, report_dir):
    data = benchmark.pedantic(
        lambda: run(exp1_swarm_size, scale="smoke", seed=42),
        rounds=1,
        iterations=1,
    )
    save_report(report_dir, "exp1_swarm_size", exp1_swarm_size.report(data))

    p = exp1_swarm_size.SCALES["smoke"]
    n_lo, n_hi = min(p["nodes"]), max(p["nodes"])

    # Shape 1 (Fig. 1): at fixed per-node budget, more nodes improve
    # quality on the solvable function.
    assert _mean_logq(data, "sphere", n_hi, 8) < _mean_logq(data, "sphere", n_lo, 8)

    # Shape 2: oversized swarms under-iterate within the budget —
    # k=32 never beats k=8 at the largest network.
    assert _mean_logq(data, "sphere", n_hi, 8) <= _mean_logq(data, "sphere", n_hi, 32)

    # Shape 3: the hard function stays hard everywhere (no config gets
    # Griewank below 1e-4 at this budget) — difficulty ordering holds.
    griewank_best = min(
        res.quality_stats.minimum
        for res in data.entries
        if res.scenario.function == "griewank"
    )
    sphere_best = min(
        res.quality_stats.minimum
        for res in data.entries
        if res.scenario.function == "sphere"
    )
    assert sphere_best < griewank_best
