"""Ablation A1: anti-entropy mode (push–pull vs push vs pull).

The paper chose Demers' push–pull anti-entropy.  This ablation holds
everything else fixed and swaps the exchange mode, measuring final
quality and how fully the optimum diffused (per-node best spread).
Expected: push–pull diffuses at least as tightly as either half, at
identical message-per-cycle budgets.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_report
from repro.analysis.tables import format_paper_table, format_value
from repro.scenario import Scenario, Session
from repro.utils.config import CoordinationConfig
from repro.utils.numerics import safe_log10

MODES = ("push", "pull", "push-pull")


def run_ablation():
    results = {}
    for mode in MODES:
        cfg = Scenario(
            function="sphere",
            nodes=32,
            particles_per_node=8,
            total_evaluations=32 * 1000,
            gossip_cycle=8,
            repetitions=3,
            seed=101,
            coordination=CoordinationConfig(mode=mode),
        )
        results[mode] = Session(cfg).run()
    return results


def test_ablation_coordination_mode(benchmark, report_dir):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for mode, res in results.items():
        spread = float(np.mean([r.node_best_spread for r in res.records]))
        msgs = float(np.mean([r.messages.coordination_messages for r in res.records]))
        rows.append(
            {
                "function": mode,
                "avg": format_value(res.quality_stats.mean),
                "min": format_value(res.quality_stats.minimum),
                "max": format_value(res.quality_stats.maximum),
                "var": format_value(spread),  # column reused for spread
            }
        )
        rows[-1]["messages"] = format_value(msgs)
    report = format_paper_table(
        rows,
        columns=("function", "avg", "min", "max", "var", "messages"),
        title="Ablation A1 — coordination mode (var column = mean node-best spread)",
    )
    save_report(report_dir, "ablation_coordination", report)

    # Push-pull must diffuse at least as tightly as push-only.
    spread = {
        mode: float(np.mean([r.node_best_spread for r in res.records]))
        for mode, res in results.items()
    }
    assert spread["push-pull"] <= spread["push"] + 1e-12

    # All modes land within a sane band of each other on final quality
    # (they share the same solver; only diffusion speed differs).
    logq = {
        mode: float(np.mean(safe_log10(np.maximum(res.qualities(), 0.0))))
        for mode, res in results.items()
    }
    assert max(logq.values()) - min(logq.values()) < 20.0
