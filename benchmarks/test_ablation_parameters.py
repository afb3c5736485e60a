"""Ablation A7: PSO parameterizations — the reproduction's key deviation.

Two parameterizations of the same distributed system:

* **literal** — the paper's quoted textbook equations
  (``w = 1, c1 = c2 = 2``);
* **constricted** — Clerc's coefficients (our default; DESIGN.md §4.1).

Pinned shape: the literal parameters stagnate orders of magnitude
above constriction (the documented reason we deviate).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_report
from repro.analysis.tables import format_paper_table, format_value
from repro.scenario import Scenario, Session
from repro.utils.config import PSOConfig
from repro.utils.numerics import safe_log10

N, K, BUDGET = 16, 8, 1500


def run_fixed(pso: PSOConfig) -> list[float]:
    cfg = Scenario(
        function="sphere", nodes=N, particles_per_node=K,
        total_evaluations=N * BUDGET, gossip_cycle=K,
        repetitions=3, seed=701, pso=pso,
    )
    return Session(cfg).run().qualities()


def run_ablation():
    return {
        "literal (w=1, c=2)": run_fixed(
            PSOConfig(particles=K, inertia=1.0, c1=2.0, c2=2.0)
        ),
        "constricted": run_fixed(PSOConfig(particles=K)),
    }


def test_ablation_parameters(benchmark, report_dir):
    data = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

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
        title="Ablation A7 — PSO parameterizations (sphere, n=16, k=8)",
    )
    save_report(report_dir, "ablation_parameters", report)

    logq = {
        name: float(np.median(safe_log10(np.maximum(qs, 0.0))))
        for name, qs in data.items()
    }
    # The documented deviation, quantified: literal stagnates far
    # above constriction.
    assert logq["literal (w=1, c=2)"] > logq["constricted"] + 3.0
