"""Ablation A4: NEWSCAST view size sensitivity.

The paper (after Jelasity et al.) claims ``c = 20`` "is already
sufficient for very stable and robust connectivity".  This ablation
sweeps ``c`` and measures overlay connectivity and optimization
quality: tiny views fragment or slow diffusion; growing beyond ~20
buys nothing.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_report
from repro.analysis.tables import format_paper_table, format_value
from repro.scenario import Scenario, Session
from repro.utils.config import NewscastConfig
from repro.utils.numerics import safe_log10

VIEW_SIZES = (2, 5, 20, 40)


def run_ablation():
    results = {}
    for c in VIEW_SIZES:
        cfg = Scenario(
            function="sphere",
            nodes=64,
            particles_per_node=8,
            total_evaluations=64 * 500,
            gossip_cycle=8,
            repetitions=3,
            seed=404,
            newscast=NewscastConfig(view_size=c),
        )
        results[c] = Session(cfg).run()
    return results


def test_ablation_view_size(benchmark, report_dir):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for c, res in results.items():
        spread = float(np.mean([r.node_best_spread for r in res.records]))
        rows.append(
            {
                "function": f"c={c}",
                "avg": format_value(res.quality_stats.mean),
                "min": format_value(res.quality_stats.minimum),
                "var": format_value(spread),
            }
        )
    report = format_paper_table(
        rows,
        columns=("function", "avg", "min", "var"),
        title="Ablation A4 — NEWSCAST view size (var column = node-best spread)",
    )
    save_report(report_dir, "ablation_viewsize", report)

    logq = {
        c: float(np.mean(safe_log10(np.maximum(res.qualities(), 0.0))))
        for c, res in results.items()
    }
    # c=20 performs as well as c=40: no benefit past the paper's value.
    assert logq[20] <= logq[40] + 2.0
    # And c=20 is not worse than the tiny views (diffusion intact).
    assert logq[20] <= max(logq[2], logq[5]) + 2.0
