"""Tests for tables, ASCII plots and CSV export."""

from __future__ import annotations

import csv
import io

import pytest

from repro.analysis.export import results_to_csv, rows_to_csv
from repro.analysis.plots import Series, ascii_plot
from repro.analysis.tables import (
    format_paper_table,
    format_value,
    quality_table_rows,
    time_table_rows,
)
from repro.scenario import Scenario, Session


@pytest.fixture(scope="module")
def small_result():
    cfg = Scenario(
        function="sphere", nodes=4, particles_per_node=4,
        total_evaluations=800, gossip_cycle=4, repetitions=2, seed=3,
    )
    return Session(cfg).run()


@pytest.fixture(scope="module")
def threshold_result():
    cfg = Scenario(
        function="sphere", nodes=4, particles_per_node=16,
        total_evaluations=2**15, gossip_cycle=16, repetitions=2, seed=3,
        quality_threshold=1e-6,
    )
    return Session(cfg).run()


class TestFormatValue:
    def test_none_and_nan_dash(self):
        assert format_value(None) == "–"
        assert format_value(float("nan")) == "–"

    def test_zero(self):
        assert format_value(0.0) == "0.0"

    def test_plain_decimals(self):
        assert format_value(0.52043) == "0.52043"
        assert format_value(235940.0) == "235940"

    def test_scientific_for_extremes(self):
        assert "E-51" in format_value(2.49767e-51)
        assert "E+08" in format_value(2.48384e8)

    def test_precision(self):
        assert format_value(1.23456789e-10, precision=3) == "1.235E-10"


class TestTables:
    def test_quality_rows(self, small_result):
        rows = quality_table_rows({"sphere": small_result})
        assert rows[0]["function"] == "sphere"
        assert rows[0]["avg"] != "–"

    def test_time_rows_with_success(self, threshold_result):
        rows = time_table_rows({"sphere": threshold_result})
        assert rows[0]["avg"] != "–"

    def test_time_rows_never_converged(self, small_result):
        # small_result has no threshold -> time stats None -> dashes.
        rows = time_table_rows({"sphere": small_result})
        assert rows[0] == {
            "function": "sphere", "avg": "–", "min": "–", "max": "–", "var": "–"
        }

    def test_format_paper_table_alignment(self, small_result):
        rows = quality_table_rows({"sphere": small_result})
        text = format_paper_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Function" in lines[1]
        assert set(lines[2]) == {"-"}
        assert "sphere" in lines[3]

    def test_empty_rows(self):
        text = format_paper_table([], title="empty")
        assert "Function" in text


class TestAsciiPlot:
    def test_basic_render(self):
        s = Series("a", [0, 1, 2], [0.0, 1.0, 4.0])
        out = ascii_plot([s], title="demo")
        assert "demo" in out
        assert "o = a" in out
        assert "o" in out.splitlines()[1]

    def test_multiple_series_distinct_markers(self):
        out = ascii_plot(
            [Series("a", [0, 1], [0, 1]), Series("b", [0, 1], [1, 0])]
        )
        assert "o = a" in out
        assert "x = b" in out

    def test_nonfinite_points_dropped(self):
        s = Series("a", [0, 1, 2], [1.0, float("nan"), 2.0])
        out = ascii_plot([s])
        assert "(no data)" not in out

    def test_all_nan_series_flagged(self):
        out = ascii_plot(
            [Series("ok", [0, 1], [0, 1]), Series("gone", [0, 1], [float("nan")] * 2)]
        )
        assert "gone (no data)" in out

    def test_empty_everything(self):
        out = ascii_plot([Series("a", [], [])])
        assert "no finite data" in out

    def test_log_x_axis(self):
        s = Series("a", [1, 1024], [0.0, 1.0])
        out = ascii_plot([s], logx=True)
        assert "log2" in out

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Series("a", [1, 2], [1.0])

    def test_canvas_too_small(self):
        with pytest.raises(ValueError):
            ascii_plot([Series("a", [0], [0])], width=4, height=2)

    def test_constant_series_handled(self):
        out = ascii_plot([Series("a", [0, 1, 2], [5.0, 5.0, 5.0])])
        assert "o = a" in out


class TestCsvExport:
    def test_round_trip(self, small_result):
        text = results_to_csv([small_result])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2  # repetitions
        assert rows[0]["function"] == "sphere"
        assert int(rows[0]["nodes"]) == 4
        assert float(rows[0]["quality"]) >= 0.0
        assert rows[0]["repetition"] == "0"
        assert rows[1]["repetition"] == "1"

    def test_function_column_names_each_result_function(self):
        results = [
            Session(Scenario(function=name, nodes=2, particles_per_node=2,
                             total_evaluations=16, gossip_cycle=2,
                             seed=3)).run()
            for name in ("rastrigin", "dejong_f2")
        ]
        rows = list(csv.DictReader(io.StringIO(results_to_csv(results))))
        assert [r["function"] for r in rows] == ["rastrigin", "dejong_f2"]

    def test_writes_file(self, small_result, tmp_path):
        path = tmp_path / "out.csv"
        text = results_to_csv([small_result], path=path)
        assert path.read_text() == text

    def test_threshold_fields(self, threshold_result):
        text = results_to_csv([threshold_result])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert all(r["threshold_local_time"] not in ("", "None") for r in rows)

    def test_rows_to_csv(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        text = rows_to_csv(rows, path=tmp_path / "rows.csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[1]["b"] == "y"

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""
