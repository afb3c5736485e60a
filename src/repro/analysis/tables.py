"""Paper-style result tables.

The paper's Tables 1, 3 and 4 share a layout: one row per benchmark
function with ``avg / min / max / Var`` of the best result over
repetitions (Table 2 reports ``min`` only).  These helpers render that
layout from experiment results, with the paper's scientific-notation
formatting and its "–" convention for never-converged rows
(Griewank in Table 4).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.scenario.result import Result
from repro.utils.numerics import RunningStats

__all__ = [
    "format_value",
    "quality_table_rows",
    "time_table_rows",
    "format_paper_table",
]


def format_value(value: float | None, precision: int = 5) -> str:
    """Paper-style numeric formatting.

    ``None``/NaN → "–"; zero → "0.0"; magnitudes in ``[1e-3, 1e6)``
    as plain decimals; otherwise scientific notation like
    ``2.49767E-51`` (the paper's style).
    """
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "–"
    v = float(value)
    if v == 0.0:
        return "0.0"
    mag = abs(v)
    if 1e-3 <= mag < 1e6:
        return f"{v:.{precision}f}".rstrip("0").rstrip(".") or "0.0"
    return f"{v:.{precision}E}"


def _stats_row(stats: RunningStats | None) -> dict[str, str]:
    if stats is None or stats.count == 0:
        return {"avg": "–", "min": "–", "max": "–", "var": "–"}
    d = stats.as_dict()
    return {key: format_value(d[key]) for key in ("avg", "min", "max", "var")}


def quality_table_rows(
    results: Mapping[str, Result]
) -> list[dict[str, str]]:
    """Rows of a quality table: one per function, paper column set.

    Parameters
    ----------
    results:
        Mapping ``function name -> best Result`` (the
        caller selects the best configuration per function, as the
        paper's "best results" tables do).
    """
    rows = []
    for fname, result in results.items():
        row = {"function": fname}
        row.update(_stats_row(result.quality_stats))
        rows.append(row)
    return rows


def time_table_rows(
    results: Mapping[str, Result],
    use_total_evaluations: bool = True,
) -> list[dict[str, str]]:
    """Rows of a time-to-threshold table (Table 4 layout).

    Functions whose runs never reached the threshold render as the
    paper's all-dash row.

    Parameters
    ----------
    results:
        Mapping ``function name -> Result`` run with a
        quality threshold.
    use_total_evaluations:
        Report global evaluations-to-threshold (Table 4's magnitude)
        instead of per-node local time.
    """
    rows = []
    for fname, result in results.items():
        stats = (
            result.total_eval_stats if use_total_evaluations else result.time_stats
        )
        row = {"function": fname}
        row.update(_stats_row(stats))
        rows.append(row)
    return rows


def format_paper_table(
    rows: Sequence[Mapping[str, str]],
    columns: Sequence[str] = ("function", "avg", "min", "max", "var"),
    title: str | None = None,
) -> str:
    """Render rows as an aligned text table.

    >>> print(format_paper_table([{"function": "sphere", "avg": "0.0",
    ...     "min": "0.0", "max": "0.0", "var": "0.0"}]))  # doctest: +SKIP
    """
    headers = {c: c.capitalize() for c in columns}
    widths = {
        c: max(len(headers[c]), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(headers[c])
        for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(headers[c].ljust(widths[c]) for c in columns)
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
