"""CSV export of experiment results.

Every experiment's raw per-run data can be dumped for external
plotting; the format is one row per (configuration, repetition) with
the full parameter tuple, so paper figures are reproducible from the
CSV alone.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.scenario.result import Result

__all__ = ["results_to_csv", "rows_to_csv"]

_FIELDS = (
    "function",
    "nodes",
    "particles_per_node",
    "total_evaluations",
    "gossip_cycle",
    "repetition",
    "quality",
    "best_value",
    "evaluations_performed",
    "cycles",
    "stop_reason",
    "threshold_local_time",
    "threshold_total_evaluations",
)


def results_to_csv(
    results: Iterable[Result],
    path: str | Path | None = None,
) -> str:
    """Serialize experiment results to CSV text (optionally to a file).

    Returns the CSV content as a string either way, so tests and the
    CLI can use it without touching the filesystem.
    """
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_FIELDS, lineterminator="\n")
    writer.writeheader()
    for result in results:
        scenario = result.scenario
        for rep, run in enumerate(result.records):
            writer.writerow(
                {
                    "function": scenario.function,
                    "nodes": scenario.nodes,
                    "particles_per_node": scenario.particles_per_node,
                    "total_evaluations": scenario.total_evaluations,
                    "gossip_cycle": scenario.gossip_cycle,
                    "repetition": rep,
                    "quality": run.quality,
                    "best_value": run.best_value,
                    "evaluations_performed": run.total_evaluations,
                    "cycles": run.cycles,
                    "stop_reason": run.stop_reason,
                    "threshold_local_time": run.threshold_local_time,
                    "threshold_total_evaluations": run.threshold_total_evaluations,
                }
            )
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def rows_to_csv(
    rows: Sequence[Mapping[str, object]],
    path: str | Path | None = None,
) -> str:
    """Serialize generic dict rows (e.g. table rows) to CSV text."""
    if not rows:
        return ""
    fields = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
