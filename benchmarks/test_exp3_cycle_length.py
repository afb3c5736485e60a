"""Benchmark: regenerate Table 3 / Figure 3 (quality vs gossip cycle
length)."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_report
from repro.experiments import exp3_cycle_length
from repro.experiments.common import run
from repro.utils.numerics import safe_log10


def _mean_logq(data, function, cycle):
    for res in data.entries:
        point = res.scenario
        if point.function == function and point.gossip_cycle == cycle:
            return float(np.mean(safe_log10(np.maximum(res.qualities(), 0.0))))
    raise AssertionError(f"missing point {function} r={cycle}")


def test_exp3_cycle_length(benchmark, report_dir):
    data = benchmark.pedantic(
        lambda: run(exp3_cycle_length, scale="smoke", seed=42),
        rounds=1,
        iterations=1,
    )
    save_report(report_dir, "exp3_cycle_length", exp3_cycle_length.report(data))

    cycles = sorted(exp3_cycle_length.SCALES["smoke"]["cycles"])
    r_lo, r_hi = cycles[0], cycles[-1]

    # Shape 1 (Sec. 4.2): frequent gossip helps (or at worst ties) on
    # the solvable function.
    assert _mean_logq(data, "sphere", r_lo) <= _mean_logq(data, "sphere", r_hi) + 0.5

    # Shape 2: on the function the solver cannot crack, the gossip
    # rate is "obviously less crucial" — small spread across r.
    griewank_spread = abs(
        _mean_logq(data, "griewank", r_lo) - _mean_logq(data, "griewank", r_hi)
    )
    sphere_spread = abs(
        _mean_logq(data, "sphere", r_lo) - _mean_logq(data, "sphere", r_hi)
    )
    assert griewank_spread < max(sphere_spread, 1.0) + 0.5
