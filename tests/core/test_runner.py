"""Tests for the experiment runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenario import Scenario, Session
from repro.utils.config import ChurnConfig
from repro.utils.exceptions import ConfigurationError


def make_config(**overrides) -> Scenario:
    base = dict(
        function="sphere",
        nodes=8,
        particles_per_node=4,
        total_evaluations=4000,
        gossip_cycle=4,
        repetitions=2,
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestRunSingle:
    def test_budget_exactly_consumed(self):
        result = Session(make_config()).run_one(0)
        assert result.total_evaluations == 4000
        assert result.stop_reason == "budget"

    def test_quality_reasonable_on_sphere(self):
        result = Session(make_config()).run_one(0)
        assert 0.0 <= result.quality < 100.0

    def test_budget_with_remainder(self):
        # 1000 evals over 8 nodes = 125 each; r=4 -> 31 cycles + 1 eval.
        result = Session(make_config(total_evaluations=1000)).run_one(0)
        assert result.total_evaluations == 125 * 8

    def test_threshold_stop(self):
        result = Session(
            make_config(
                nodes=4,
                total_evaluations=2**16,
                particles_per_node=16,
                gossip_cycle=16,
                quality_threshold=1e-6,
            )
        ).run_one(0)
        assert result.stop_reason == "threshold"
        assert result.reached_threshold
        assert result.threshold_local_time is not None
        assert result.threshold_local_time > 0
        assert result.threshold_total_evaluations <= 2**16
        assert result.quality <= 1e-6

    def test_threshold_miss_reports_budget(self):
        result = Session(
            make_config(function="griewank", quality_threshold=1e-10)
        ).run_one(0)
        assert result.stop_reason == "budget"
        assert not result.reached_threshold
        assert result.threshold_local_time is None

    def test_node_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Session(make_config(nodes=8, total_evaluations=4)).run_one(0)

    def test_history_recording(self):
        result = Session(make_config(record_history=True)).run_one(0)
        assert len(result.history) == result.cycles
        bests = [h.best_value for h in result.history]
        assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))

    def test_history_off_by_default(self):
        assert Session(make_config()).run_one(0).history == []

    def test_single_node_network(self):
        result = Session(make_config(nodes=1, total_evaluations=500)).run_one(0)
        assert result.total_evaluations == 500
        assert np.isfinite(result.quality)

    def test_message_tally_collected(self):
        result = Session(make_config()).run_one(0)
        assert result.messages.coordination_messages > 0
        assert result.messages.newscast_exchanges > 0
        assert result.messages.transport_sent >= result.messages.coordination_messages

    def test_node_best_spread_zero_after_full_diffusion(self):
        # Long run with frequent gossip: all nodes converge on one optimum.
        result = Session(make_config(gossip_cycle=2)).run_one(0)
        assert result.node_best_spread == pytest.approx(0.0, abs=1e-20)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = Session(make_config()).run_one(3)
        b = Session(make_config()).run_one(3)
        assert a.best_value == b.best_value
        assert a.total_evaluations == b.total_evaluations
        assert a.cycles == b.cycles

    def test_repetitions_differ(self):
        a = Session(make_config()).run_one(0)
        b = Session(make_config()).run_one(1)
        assert a.best_value != b.best_value

    def test_seed_changes_results(self):
        a = Session(make_config(seed=1)).run_one(0)
        b = Session(make_config(seed=2)).run_one(0)
        assert a.best_value != b.best_value


class TestRunExperiment:
    def test_aggregates_repetitions(self):
        result = Session(make_config(repetitions=3)).run()
        assert len(result.records) == 3
        stats = result.quality_stats
        assert stats.count == 3
        assert stats.minimum <= stats.mean <= stats.maximum

    def test_progress_callback(self):
        seen = []
        Session(make_config(repetitions=2)).run(progress=lambda i, r: seen.append(i))
        assert seen == [0, 1]

    def test_qualities_in_order(self):
        result = Session(make_config(repetitions=3)).run()
        assert result.qualities() == [r.quality for r in result.records]

    def test_success_rate_no_threshold(self):
        assert Session(make_config()).run().success_rate == 1.0

    def test_success_rate_with_threshold(self):
        result = Session(
            make_config(
                function="griewank", quality_threshold=1e-10, repetitions=2
            )
        ).run()
        assert result.success_rate == 0.0
        assert result.time_stats is None
        assert result.total_eval_stats is None


class TestChurnIntegration:
    def test_runs_under_churn(self):
        cfg = make_config(
            nodes=16,
            total_evaluations=8000,
            churn=ChurnConfig(crash_rate=0.02, join_rate=0.02, min_population=4),
        )
        result = Session(cfg).run_one(0)
        assert np.isfinite(result.quality)
        assert result.total_evaluations > 0

    def test_churn_crashes_do_not_lose_global_best_metric(self):
        cfg = make_config(
            nodes=16,
            total_evaluations=8000,
            churn=ChurnConfig(crash_rate=0.05, min_population=2),
        )
        result = Session(cfg.with_(record_history=True)).run_one(0)
        bests = [h.best_value for h in result.history]
        # The observer's best is cumulative: monotone even as nodes die.
        assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))
