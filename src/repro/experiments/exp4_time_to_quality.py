"""Experiment 4 — time to reach a target quality (Table 4 / Figure 4).

Paper setup (Sec. 4.3, fourth set): stop as soon as the global
solution quality reaches ``1e-10``; network sizes ``n = 2^i,
i = 0..10``, swarm sizes ``k ∈ {1,4,8,16}``, gossip every sweep
(``r = k``), total budget capped at ``2^20`` evaluations.  "Time" is
the number of evaluations performed locally at each node.

Paper findings our reproduction must show:

* required time is **inversely proportional to the number of nodes**
  (twice the machines, half the wall-clock) …
* … and **proportional to swarm size** (more particles per node = more
  local evaluations per unit progress);
* Griewank never reaches the threshold (the paper's all-dash Table 4
  row) — the distributed design does not rescue an unsuited solver.
"""

from __future__ import annotations

import math

from repro.analysis.tables import format_paper_table, time_table_rows
from repro.experiments.common import SweepData, figure_panels, scale_params
from repro.functions.suite import PAPER_FUNCTIONS
from repro.scenario import Scenario

__all__ = ["SCALES", "points", "report"]

NAME = "exp4"
TITLE = "Experiment 4: time to quality 1e-10 vs network size (Table 4 / Figure 4)"

#: The paper's stopping quality.
THRESHOLD = 1e-10

SCALES: dict[str, dict] = {
    "smoke": {
        "functions": ("sphere", "f2", "griewank"),
        "node_exponents": (0, 2, 4),
        "particles": (4, 16),
        "budget": 2**16,
        "repetitions": 2,
    },
    "reduced": {
        "functions": PAPER_FUNCTIONS,
        "node_exponents": (0, 2, 4, 6),
        "particles": (4, 16),
        "budget": 2**18,
        "repetitions": 5,
    },
    "full": {
        "functions": PAPER_FUNCTIONS,
        "node_exponents": tuple(range(0, 11)),
        "particles": (1, 4, 8, 16),
        "budget": 2**20,
        "repetitions": 50,
    },
}


def points(
    scale: str = "reduced", seed: int = 42, engine: str = "reference"
) -> list[Scenario]:
    """The sweep at ``scale``; budget-infeasible points are skipped."""
    p = scale_params(SCALES, scale)
    return [
        Scenario(
            function=function,
            nodes=2**i,
            particles_per_node=k,
            total_evaluations=p["budget"],
            gossip_cycle=k,
            repetitions=p["repetitions"],
            seed=seed,
            quality_threshold=THRESHOLD,
            engine=engine,
        )
        for function in p["functions"]
        for i in p["node_exponents"]
        for k in p["particles"]
        if p["budget"] // 2**i >= k
    ]


def report(data: SweepData) -> str:
    """Table 4 rows + one Figure-4 panel per function.

    The figure's y axis is log10 of the mean *local time* (evaluations
    per node) to threshold, over the runs that reached it; points with
    no successful run are omitted (Griewank's panel is empty, as the
    paper's Figure 4 has no Griewank panel at all).
    """
    sections = [TITLE, f"(scale={data.scale}, {data.elapsed_seconds:.1f}s)", ""]

    # Table 4: global evaluations-to-threshold of the best config.
    best: dict[str, object] = {}
    for res in data.entries:
        function = res.scenario.function
        stats = res.total_eval_stats
        cur = best.get(function)
        if stats is None:
            best.setdefault(function, res)
            continue
        cur_stats = cur.total_eval_stats if cur is not None else None  # type: ignore[union-attr]
        if cur_stats is None or stats.mean < cur_stats.mean:
            best[function] = res
    sections.append(
        format_paper_table(
            time_table_rows(best),  # type: ignore[arg-type]
            title="Table 4 — total evaluations to reach 1e-10 (best config)",
        )
    )
    sections.append("")

    def mean_local_time(res) -> float:
        stats = res.time_stats
        if stats is None:
            return float("nan")
        return math.log10(max(stats.mean, 1.0))

    sections.extend(
        figure_panels(
            data,
            figure=4,
            caption="log10 local time to 1e-10 vs network size",
            x_of=lambda c: c.nodes,
            group_of=lambda c: c.particles_per_node,
            group_label="particles",
            xlabel="network size (n, log2 axis)",
            ylabel="logT",
            logx=True,
            y_of=mean_local_time,
        )
    )
    return "\n".join(sections)
