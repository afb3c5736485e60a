"""Benchmark: regenerate Table 2 / Figure 2 (quality vs network size,
fixed total budget)."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_report
from repro.experiments import exp2_network_size
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
    return None


def test_exp2_network_size(benchmark, report_dir):
    data = benchmark.pedantic(
        lambda: run(exp2_network_size, scale="smoke", seed=42),
        rounds=1,
        iterations=1,
    )
    save_report(report_dir, "exp2_network_size", exp2_network_size.report(data))

    # Shape 1 (the headline, paper conclusion iv): equal total
    # particles n·k ⇒ comparable quality regardless of the partition.
    # Compare (n=4, k=16), (n=16, k=4), (n=64, k=1): all 64 particles.
    partitions = [(4, 16), (16, 4), (64, 1)]
    logqs = [
        _mean_logq(data, "sphere", n, k)
        for n, k in partitions
        if _mean_logq(data, "sphere", n, k) is not None
    ]
    assert len(logqs) >= 2
    # Total-quality scale spans hundreds of orders; equal-n·k points
    # must cluster within a small fraction of it.
    assert max(logqs) - min(logqs) < 15.0

    # Shape 2: spreading the fixed budget over *vastly* more particles
    # than the sweet spot hurts (too few updates each): the largest
    # n·k point is worse than the best mid-range point.
    sphere_points = {
        (res.scenario.nodes, res.scenario.particles_per_node): float(
            np.mean(safe_log10(np.maximum(res.qualities(), 0.0)))
        )
        for res in data.entries
        if res.scenario.function == "sphere"
    }
    max_total = max(n * k for n, k in sphere_points)
    worst_big = sphere_points[
        max((n, k) for n, k in sphere_points if n * k == max_total)
    ]
    best_overall = min(sphere_points.values())
    assert best_overall < worst_big
