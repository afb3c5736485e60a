"""Benchmark: regenerate Table 4 / Figure 4 (time to quality 1e-10)."""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.experiments import exp4_time_to_quality
from repro.experiments.common import run


def _mean_time(data, function, nodes, particles):
    for res in data.entries:
        point = res.scenario
        if (
            point.function == function
            and point.nodes == nodes
            and point.particles_per_node == particles
        ):
            stats = res.time_stats
            return None if stats is None else stats.mean
    return None


def test_exp4_time_to_quality(benchmark, report_dir):
    data = benchmark.pedantic(
        lambda: run(exp4_time_to_quality, scale="smoke", seed=42),
        rounds=1,
        iterations=1,
    )
    save_report(
        report_dir, "exp4_time_to_quality", exp4_time_to_quality.report(data)
    )

    p = exp4_time_to_quality.SCALES["smoke"]
    n_lo = 2 ** min(p["node_exponents"])
    n_hi = 2 ** max(p["node_exponents"])

    # Shape 1 (Fig. 4): local time to threshold decreases with network
    # size (parallelism pays).
    t_small = _mean_time(data, "sphere", n_lo, 16)
    t_large = _mean_time(data, "sphere", n_hi, 16)
    assert t_small is not None and t_large is not None
    assert t_large < t_small

    # Shape 2: larger swarms need more local time.  Compared at the
    # middle network size — an isolated (n=1) small swarm can stall
    # entirely, which is itself a paper-consistent behaviour, but it
    # leaves no time to compare.
    n_mid = 2 ** sorted(p["node_exponents"])[1]
    t_k4 = _mean_time(data, "sphere", n_mid, 4)
    t_k16 = _mean_time(data, "sphere", n_mid, 16)
    assert t_k4 is not None and t_k16 is not None
    assert t_k4 < t_k16

    # Shape 3 (Table 4's dash row): Griewank never reaches 1e-10.
    for n in (n_lo, n_hi):
        for k in p["particles"]:
            assert _mean_time(data, "griewank", n, k) is None
