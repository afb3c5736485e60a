"""Ablation A3: coordination on/off + centralized reference.

Three systems at the identical total budget:

* the full framework (NEWSCAST + anti-entropy),
* independent multi-start (coordination off — the paper's
  "exploiting stochasticity" extreme),
* one centralized swarm of n·k particles (the paper's "single, much
  more powerful machine").

Expected shape (paper conclusion iv): coordination ≈ centralized, and
both at least match independence on solvable functions.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_report
from repro.analysis.tables import format_paper_table, format_value
from repro.scenario import Scenario, Session
from repro.utils.numerics import safe_log10


def make_config(function: str) -> Scenario:
    return Scenario(
        function=function,
        nodes=16,
        particles_per_node=4,
        total_evaluations=2**15,
        gossip_cycle=4,
        repetitions=3,
        seed=303,
    )


def run_ablation():
    out = {}
    for function in ("sphere", "griewank"):
        cfg = make_config(function)
        out[function] = {
            "framework": Session(cfg).run().qualities(),
            "independent": Session(cfg.with_(baseline="independent")).run().qualities(),
            "centralized": Session(cfg.with_(baseline="centralized")).run().qualities(),
        }
    return out


def median_logq(values) -> float:
    return float(np.median(safe_log10(np.maximum(values, 0.0))))


def test_ablation_baselines(benchmark, report_dir):
    data = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for function, systems in data.items():
        for system, qualities in systems.items():
            rows.append(
                {
                    "function": f"{function}/{system}",
                    "avg": format_value(float(np.mean(qualities))),
                    "min": format_value(float(np.min(qualities))),
                    "max": format_value(float(np.max(qualities))),
                }
            )
    report = format_paper_table(
        rows,
        columns=("function", "avg", "min", "max"),
        title="Ablation A3 — framework vs independent vs centralized",
    )
    save_report(report_dir, "ablation_baselines", report)

    sphere = data["sphere"]
    fw = median_logq(sphere["framework"])
    ind = median_logq(sphere["independent"])
    cen = median_logq(sphere["centralized"])

    # Coordination is worth something: framework beats or matches
    # independence (within half an order of magnitude of noise).
    assert fw <= ind + 0.5
    # And the distributed system plays in the centralized system's
    # league (same ballpark on a ~40-order scale).
    assert abs(fw - cen) < 10.0
