"""Experiment 6 — dynamic landscapes and hostile overlays (beyond the paper).

The paper evaluates gossip-based PSO on static, honest deployments.
This factorial probes the two assumptions the time-aware Problem layer
relaxes:

* **dynamics** — the objective drifts (seeded random-walk optimum) or
  shifts on a schedule, so swarms must re-converge after every change;
* **adversary** — a fraction of overlay nodes is Byzantine and gossips
  fabricated bests, with and without the plausibility-filter defense.

The grid is ``dynamics x adversary`` on sphere (the paper's cleanest
landscape, so any degradation is attributable to the perturbation, not
to multimodality), run on the fast engine with >= 30 seeded
repetitions per cell at full scale.  Reported per cell: mean final
quality, offline error / recovery (dynamic cells) and filter tallies
(hostile cells).

The CI ``scenario-matrix`` smoke runs the ``tiny`` grid with every
cell routed through the spool-backed distributed service (submit ->
worker -> collect), proving the dynamics/adversary scenario fields and
their per-run metrics survive the job queue's JSON round-trip::

    python -m repro.experiments exp6 --scale tiny --engine fast --spool DIR
"""

from __future__ import annotations

from repro.analysis.tables import format_paper_table, format_value
from repro.experiments.common import SweepData, scale_params
from repro.functions.problem import DynamicsSpec
from repro.scenario import Scenario
from repro.simulator.adversary import AdversarySpec

__all__ = ["SCALES", "CELLS", "points", "report"]

NAME = "exp6"
TITLE = (
    "Experiment 6: dynamic x hostile factorial on sphere "
    "(beyond the paper's static honest setting)"
)

SCALES: dict[str, dict] = {
    "tiny": {
        "nodes": 8, "particles": 4, "evals_per_node": 200,
        "repetitions": 2,
    },
    "smoke": {
        "nodes": 16, "particles": 8, "evals_per_node": 500,
        "repetitions": 3,
    },
    "reduced": {
        "nodes": 64, "particles": 16, "evals_per_node": 1000,
        "repetitions": 10,
    },
    "full": {
        "nodes": 256, "particles": 16, "evals_per_node": 2000,
        "repetitions": 30,
    },
}

#: The factorial grid, in deterministic sweep order.  Each cell is
#: (label, dynamics ctor kwargs, adversary ctor kwargs).
CELLS: tuple[tuple[str, dict, dict], ...] = (
    ("static/honest", {}, {}),
    ("static/false-best", {}, {"fraction": 0.25}),
    ("static/defended", {}, {"fraction": 0.25, "defense": True}),
    ("drift/honest", {"kind": "drift"}, {}),
    ("drift/false-best", {"kind": "drift"}, {"fraction": 0.25}),
    ("drift/defended", {"kind": "drift"}, {"fraction": 0.25, "defense": True}),
    ("shift/honest", {"kind": "shift"}, {}),
    ("shift/false-best", {"kind": "shift"}, {"fraction": 0.25}),
    ("shift/defended", {"kind": "shift"}, {"fraction": 0.25, "defense": True}),
)


def points(
    scale: str = "reduced", seed: int = 42, engine: str = "fast"
) -> list[Scenario]:
    """One Scenario per factorial cell, in ``CELLS`` order."""
    p = scale_params(SCALES, scale)
    return [
        Scenario(
            function="sphere",
            nodes=p["nodes"],
            particles_per_node=p["particles"],
            total_evaluations=p["evals_per_node"] * p["nodes"],
            gossip_cycle=16,
            repetitions=p["repetitions"],
            seed=seed,
            engine=engine,
            dynamics=DynamicsSpec(**dyn),
            adversary=AdversarySpec(**adv),
        )
        for _, dyn, adv in CELLS
    ]


def _cell_metric(res, group: str, key: str) -> float | None:
    """Mean of one dynamics/adversary metric over the cell's runs."""
    values = []
    for run_rec in res.records:
        metrics = getattr(run_rec, group)
        if metrics and key in metrics:
            try:
                values.append(float(metrics[key]))
            except (TypeError, ValueError):
                return None
    if not values:
        return None
    return sum(values) / len(values)


def report(data: SweepData) -> str:
    """Per-cell table: quality, dynamic recovery, adversary tallies."""
    sections = [TITLE, f"(scale={data.scale}, {data.elapsed_seconds:.1f}s)", ""]
    rows = []
    for (label, _, _), res in zip(CELLS, data.entries):
        offline = _cell_metric(res, "dynamics", "offline_error")
        filtered = _cell_metric(res, "adversary", "filtered")
        true_err = _cell_metric(res, "adversary", "final_true_error")
        rows.append(
            {
                "function": label,
                "avg": format_value(res.quality_stats.mean),
                "min": format_value(offline) if offline is not None else "-",
                "max": f"{filtered:.0f}" if filtered is not None else "-",
                "var": (
                    format_value(true_err) if true_err is not None else "-"
                ),
            }
        )
    sections.append(
        format_paper_table(
            rows,
            columns=("function", "avg", "min", "max", "var"),
            title=(
                "cell | mean believed quality | mean offline error | "
                "mean filtered msgs | mean true error"
            ),
        )
    )
    sections.append("")
    sections.append(
        "Static cells reproduce the paper's setting (offline error '-'); "
        "defended cells should show filtered > 0 and a finite true error."
    )
    return "\n".join(sections)
