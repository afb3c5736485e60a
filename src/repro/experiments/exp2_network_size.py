"""Experiment 2 — quality vs network size at fixed total budget (Table 2 / Figure 2).

Paper setup (Sec. 4.1, second set): a fixed *total* budget of
``e = 2^20`` evaluations, network sizes ``n = 2^i, i = 0..16``, swarm
sizes ``k ∈ {1,4,8,16,32}``, gossip every sweep (``r = k``).

Question: given a fixed amount of total computation, how should it be
spread — few big nodes or many small ones?

Paper findings our reproduction must show:

* performance is governed by the *total* number of particles ``n·k``,
  not by how they are partitioned among nodes — curves for different
  ``n`` at equal ``n·k`` coincide (gossip overhead is negligible);
* the best range is a moderate total particle count (paper: 8–256
  working particles, most reliably 16–64 for the "nice" functions):
  too few particles under-explore, too many leave each particle too
  few updates within the budget.

This is the paper's headline: you can scale *out* without losing
quality — a node's worth of particles can be spread over many
machines for free.
"""

from __future__ import annotations

from repro.analysis.tables import format_paper_table, format_value
from repro.experiments.common import SweepData, figure_panels, scale_params
from repro.functions.suite import PAPER_FUNCTIONS
from repro.scenario import Scenario

__all__ = ["SCALES", "points", "report"]

NAME = "exp2"
TITLE = "Experiment 2: quality vs network size, fixed total budget (Table 2 / Figure 2)"

SCALES: dict[str, dict] = {
    "smoke": {
        "functions": ("sphere", "rosenbrock", "griewank"),
        "node_exponents": (0, 2, 4, 6),
        "particles": (1, 4, 16),
        "total_evaluations": 2**13,
        "repetitions": 2,
    },
    "reduced": {
        "functions": PAPER_FUNCTIONS,
        "node_exponents": tuple(range(0, 9, 2)),
        "particles": (1, 4, 16),
        "total_evaluations": 2**16,
        "repetitions": 5,
    },
    "full": {
        "functions": PAPER_FUNCTIONS,
        "node_exponents": tuple(range(0, 17, 2)),
        "particles": (1, 4, 8, 16, 32),
        "total_evaluations": 2**20,
        "repetitions": 50,
    },
}


def points(
    scale: str = "reduced", seed: int = 42, engine: str = "reference"
) -> list[Scenario]:
    """The sweep at ``scale``.

    Points where the budget would leave a node fewer evaluations than
    one full sweep (``e/n < k``) are skipped — the paper's plots stop
    there too (a swarm that cannot evaluate each particle once is not
    meaningful).
    """
    p = scale_params(SCALES, scale)
    return [
        Scenario(
            function=function,
            nodes=2**i,
            particles_per_node=k,
            total_evaluations=p["total_evaluations"],
            gossip_cycle=k,
            repetitions=p["repetitions"],
            seed=seed,
            engine=engine,
        )
        for function in p["functions"]
        for i in p["node_exponents"]
        for k in p["particles"]
        if p["total_evaluations"] // 2**i >= k
    ]


def report(data: SweepData) -> str:
    """Table 2 (min over the whole sweep per function) + Figure 2 panels."""
    sections = [TITLE, f"(scale={data.scale}, {data.elapsed_seconds:.1f}s)", ""]

    # Table 2 reports only the minimum ever reached per function.
    rows = []
    for function in data.functions():
        best_min = min(
            res.quality_stats.minimum for res in data.for_function(function)
        )
        rows.append({"function": function, "min": format_value(best_min)})
    sections.append(
        format_paper_table(
            rows, columns=("function", "min"), title="Table 2 — best (min) results"
        )
    )
    sections.append("")

    sections.extend(
        figure_panels(
            data,
            figure=2,
            caption="log10 quality vs network size",
            x_of=lambda c: c.nodes,
            group_of=lambda c: c.particles_per_node,
            group_label="particles",
            xlabel="network size (n, log2 axis)",
            logx=True,
        )
    )
    return "\n".join(sections)
