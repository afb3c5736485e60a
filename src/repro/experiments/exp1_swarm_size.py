"""Experiment 1 — solution quality vs swarm size (Table 1 / Figure 1).

Paper setup (Sec. 4.1, first set): a *fixed per-node budget* of 1000
evaluations (``e = 1000·n``), network sizes ``n ∈ {1,10,100,1000}``,
swarm sizes ``k ∈ {1,4,8,16,32}``, gossip every full sweep
(``r = k``), 50 repetitions, all six functions.

Question: with a fixed amount of *time* (local evaluations per node),
how does quality change with the number of nodes thrown at the task,
and what is the influence of swarm size?

Paper findings our reproduction must show (shapes, not absolutes):

* quality improves with the number of nodes — more nodes at the same
  wall-clock budget = better answers;
* the improvement concentrates in a swarm-size sweet spot around
  ``k ∈ [8, 16]``: ``k = 1`` is degenerate, very large ``k`` leaves
  too few sweeps within the budget.
"""

from __future__ import annotations

from repro.analysis.tables import format_paper_table, quality_table_rows
from repro.experiments.common import SweepData, figure_panels, scale_params
from repro.functions.suite import PAPER_FUNCTIONS
from repro.scenario import Scenario

__all__ = ["SCALES", "points", "report"]

NAME = "exp1"
TITLE = "Experiment 1: solution quality vs swarm size (Table 1 / Figure 1)"

#: Per-node evaluation budget (the paper's e = 1000·n).
EVALS_PER_NODE = 1000

SCALES: dict[str, dict] = {
    "smoke": {
        "functions": ("sphere", "rosenbrock", "griewank"),
        "nodes": (1, 8, 64),
        "particles": (1, 8, 32),
        "evals_per_node": 500,
        "repetitions": 2,
    },
    "reduced": {
        "functions": PAPER_FUNCTIONS,
        "nodes": (1, 10, 100),
        "particles": (1, 4, 8, 16, 32),
        "evals_per_node": EVALS_PER_NODE,
        "repetitions": 5,
    },
    "full": {
        "functions": PAPER_FUNCTIONS,
        "nodes": (1, 10, 100, 1000),
        "particles": (1, 4, 8, 16, 32),
        "evals_per_node": EVALS_PER_NODE,
        "repetitions": 50,
    },
}


def points(
    scale: str = "reduced", seed: int = 42, engine: str = "reference"
) -> list[Scenario]:
    """The sweep at ``scale``: every (function, n, k) point, r = k."""
    p = scale_params(SCALES, scale)
    return [
        Scenario(
            function=function,
            nodes=n,
            particles_per_node=k,
            total_evaluations=p["evals_per_node"] * n,
            gossip_cycle=k,
            repetitions=p["repetitions"],
            seed=seed,
            engine=engine,
        )
        for function in p["functions"]
        for n in p["nodes"]
        for k in p["particles"]
    ]


def report(data: SweepData) -> str:
    """Paper-style output: Table 1 rows + one Figure-1 panel per function."""
    sections = [TITLE, f"(scale={data.scale}, {data.elapsed_seconds:.1f}s)", ""]

    rows = quality_table_rows(data.best_per_function())
    sections.append(
        format_paper_table(rows, title="Table 1 — best results (quality over reps)")
    )
    sections.append("")

    sections.extend(
        figure_panels(
            data,
            figure=1,
            caption="log10 quality vs particles per node",
            x_of=lambda c: c.particles_per_node,
            group_of=lambda c: c.nodes,
            group_label="size",
            xlabel="particles per node (k)",
        )
    )
    return "\n".join(sections)
