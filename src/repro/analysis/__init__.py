"""Result analysis and reporting.

Turns :class:`~repro.scenario.Result` collections into:

* paper-style tables (:mod:`~repro.analysis.tables`) with the
  avg/min/max/Var columns of Tables 1, 3, 4;
* ASCII line/scatter plots (:mod:`~repro.analysis.plots`) standing in
  for Figures 1–4 in a terminal-only environment;
* CSV exports (:mod:`~repro.analysis.export`) for external plotting.
"""

from repro.analysis.tables import (
    format_paper_table,
    format_value,
    quality_table_rows,
    time_table_rows,
)
from repro.analysis.plots import ascii_plot, Series
from repro.analysis.export import results_to_csv, rows_to_csv
from repro.analysis.compare import (
    Comparison,
    bootstrap_log_ci,
    compare_systems,
    rank_sum_test,
)

__all__ = [
    "format_paper_table",
    "format_value",
    "quality_table_rows",
    "time_table_rows",
    "ascii_plot",
    "Series",
    "results_to_csv",
    "rows_to_csv",
    "Comparison",
    "bootstrap_log_ci",
    "rank_sum_test",
    "compare_systems",
]
