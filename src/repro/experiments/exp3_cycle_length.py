"""Experiment 3 — effect of the gossip cycle length (Table 3 / Figure 3).

Paper setup (Sec. 4.2, third set): ``k = 16`` particles everywhere,
per-node budget of 1000 evaluations, network sizes
``n ∈ {10,100,1000}``, gossip cycle length ``r ∈ {2,4,…,64}`` local
evaluations.

Question: how much does the *rate* of information exchange matter?

Paper findings our reproduction must show:

* more frequent gossip (smaller ``r``) gives equal or better quality —
  "the more the swarms are exchanging information, the better";
* the effect fades on functions the solver cannot crack anyway
  (Griewank, Schaffer): if no better optimum is being found, sharing
  faster shares nothing new;
* network size still matters at fixed ``k`` (more nodes = more total
  work within the same local time).
"""

from __future__ import annotations

from repro.analysis.tables import format_paper_table, quality_table_rows
from repro.experiments.common import SweepData, figure_panels, scale_params
from repro.functions.suite import PAPER_FUNCTIONS
from repro.scenario import Scenario

__all__ = ["SCALES", "points", "report"]

NAME = "exp3"
TITLE = "Experiment 3: quality vs gossip cycle length (Table 3 / Figure 3)"

#: Swarm size fixed by the paper for this set.
PARTICLES = 16
EVALS_PER_NODE = 1000

SCALES: dict[str, dict] = {
    "smoke": {
        "functions": ("sphere", "griewank"),
        "nodes": (16,),
        "cycles": (2, 16, 64),
        "evals_per_node": EVALS_PER_NODE,
        "repetitions": 2,
    },
    "reduced": {
        "functions": PAPER_FUNCTIONS,
        "nodes": (10, 100),
        "cycles": (2, 8, 16, 32, 64),
        "evals_per_node": EVALS_PER_NODE,
        "repetitions": 5,
    },
    "full": {
        "functions": PAPER_FUNCTIONS,
        "nodes": (10, 100, 1000),
        "cycles": tuple(range(2, 66, 2)),
        "evals_per_node": EVALS_PER_NODE,
        "repetitions": 50,
    },
}


def points(
    scale: str = "reduced", seed: int = 42, engine: str = "reference"
) -> list[Scenario]:
    """The sweep at ``scale``: every (function, n, r) with k = 16."""
    p = scale_params(SCALES, scale)
    return [
        Scenario(
            function=function,
            nodes=n,
            particles_per_node=PARTICLES,
            total_evaluations=p["evals_per_node"] * n,
            gossip_cycle=r,
            repetitions=p["repetitions"],
            seed=seed,
            engine=engine,
        )
        for function in p["functions"]
        for n in p["nodes"]
        for r in p["cycles"]
    ]


def report(data: SweepData) -> str:
    """Table 3 rows + one Figure-3 panel per function."""
    sections = [TITLE, f"(scale={data.scale}, {data.elapsed_seconds:.1f}s)", ""]

    rows = quality_table_rows(data.best_per_function())
    sections.append(
        format_paper_table(rows, title="Table 3 — best results (quality over reps)")
    )
    sections.append("")

    sections.extend(
        figure_panels(
            data,
            figure=3,
            caption="log10 quality vs gossip cycle length",
            x_of=lambda c: c.gossip_cycle,
            group_of=lambda c: c.nodes,
            group_label="size",
            xlabel="gossip cycle length (r)",
        )
    )
    return "\n".join(sections)
