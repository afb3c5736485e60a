"""Tests for SweepData and a tiny end-to-end experiment run."""

from __future__ import annotations

import math

import pytest

from repro.core.metrics import MessageTally
from repro.experiments import exp3_cycle_length
from repro.experiments.common import SweepData, run, run_sweep
from repro.scenario import ExecutionPolicy, Result, RunRecord, Scenario


def tiny_points():
    base = Scenario(
        function="sphere", nodes=4, particles_per_node=4,
        total_evaluations=400, gossip_cycle=4, repetitions=2, seed=11,
    )
    return [
        base,
        base.with_(gossip_cycle=2),
        base.with_(function="f2"),
    ]


def _fake_result(qualities: list[float], gossip_cycle: int = 4) -> Result:
    """A Result with hand-set per-repetition qualities."""
    scenario = Scenario(
        function="sphere", nodes=4, particles_per_node=4,
        total_evaluations=400, gossip_cycle=gossip_cycle,
        repetitions=len(qualities), seed=0,
    )
    records = [
        RunRecord(
            best_value=q, quality=q, total_evaluations=100, cycles=1,
            stop_reason="budget", threshold_local_time=None,
            threshold_total_evaluations=None, messages=MessageTally(),
            node_best_spread=0.0,
        )
        for q in qualities
    ]
    return Result(scenario=scenario, records=records)


@pytest.fixture(scope="module")
def sweep_data() -> SweepData:
    return run_sweep("tiny", "test", tiny_points())


class TestSweepData:
    def test_entries_in_order(self, sweep_data):
        assert len(sweep_data.entries) == 3
        assert sweep_data.entries[0].scenario.gossip_cycle == 4
        assert sweep_data.entries[1].scenario.gossip_cycle == 2

    def test_functions_first_seen_order(self, sweep_data):
        assert sweep_data.functions() == ["sphere", "f2"]

    def test_for_function_filters(self, sweep_data):
        assert len(sweep_data.for_function("sphere")) == 2
        assert len(sweep_data.for_function("f2")) == 1

    def test_best_per_function_picks_lowest_mean(self, sweep_data):
        best = sweep_data.best_per_function()
        sphere_means = [
            res.quality_stats.mean for res in sweep_data.for_function("sphere")
        ]
        assert best["sphere"].quality_stats.mean == min(sphere_means)

    def test_best_per_function_ignores_nan_mean_seen_first(self):
        """Regression: a NaN mean quality used to be unbeatable.

        ``NaN < x`` and ``x < NaN`` are both False, so once a
        NaN-mean entry was stored first, every later candidate lost
        the ``mean < cur.mean`` comparison and the paper-style "best
        results" table printed the NaN row instead of the true best.
        """
        inf = float("inf")
        entries = [
            _fake_result([inf, inf]),        # NaN mean, seen first
            _fake_result([1.0, 3.0], gossip_cycle=2),
            _fake_result([4.0, 6.0], gossip_cycle=1),
        ]
        assert math.isnan(entries[0].quality_stats.mean)  # the trap
        data = SweepData(name="t", scale="s", entries=entries)
        best = data.best_per_function()
        assert best["sphere"].quality_stats.mean == 2.0

    def test_best_per_function_nan_only_entries_still_report(self):
        """With nothing finite to prefer, the row still appears."""
        inf = float("inf")
        data = SweepData(
            name="t", scale="s", entries=[_fake_result([inf, inf])]
        )
        assert math.isnan(data.best_per_function()["sphere"].quality_stats.mean)

    def test_series_grouping(self, sweep_data):
        series = sweep_data.series(
            "sphere",
            x_of=lambda c: c.gossip_cycle,
            group_of=lambda c: c.nodes,
        )
        assert set(series) == {4}
        xs, ys = series[4]
        assert xs == [4.0, 2.0]
        assert len(ys) == 2

    def test_elapsed_recorded(self, sweep_data):
        assert sweep_data.elapsed_seconds > 0

    def test_progress_callback(self):
        messages = []
        run_sweep("t", "s", tiny_points()[:1], progress=messages.append)
        assert len(messages) == 1
        assert "t:s" in messages[0]


class TestDistributedSweep:
    def test_workers_match_sequential_entries(self, sweep_data):
        """Cross-point scheduling returns the sequential sweep verbatim."""
        parallel = run_sweep(
            "tiny", "test", tiny_points(),
            policy=ExecutionPolicy(workers=2),
        )
        assert [res.scenario for res in parallel.entries] == [
            res.scenario for res in sweep_data.entries
        ]
        assert [res.records for res in parallel.entries] == [
            res.records for res in sweep_data.entries
        ]

    def test_spool_matches_sequential_entries(self, sweep_data, tmp_path):
        spooled = run_sweep(
            "tiny", "test", tiny_points(),
            policy=ExecutionPolicy(workers=2, spool=str(tmp_path)),
        )
        assert [res.records for res in spooled.entries] == [
            res.records for res in sweep_data.entries
        ]

    def test_workers_progress_counts_completions(self):
        messages = []
        run_sweep(
            "t", "s", tiny_points(), progress=messages.append,
            policy=ExecutionPolicy(workers=2),
        )
        assert len(messages) == 3
        assert any("3/3" in m for m in messages)


class TestEndToEndSmoke:
    def test_exp3_smoke_runs_and_reports(self):
        """One full experiment module at its smallest extent: run it
        and render the report — validates the whole chain."""
        data = run(exp3_cycle_length, scale="smoke", seed=5)
        report = exp3_cycle_length.report(data)
        assert "Table 3" in report
        assert "Figure 3" in report
        assert "sphere" in report
        assert "griewank" in report
