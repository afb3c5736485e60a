"""Session facade: every engine and baseline behind one entry point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import QualitySample
from repro.scenario import (
    ExecutionPolicy,
    Result,
    RunRecord,
    Scenario,
    Session,
    TransportSpec,
)
from repro.utils.config import ChurnConfig
from repro.utils.exceptions import ConfigurationError


def make(**overrides) -> Scenario:
    base = dict(
        function="sphere", nodes=6, particles_per_node=4,
        total_evaluations=6 * 4 * 10, gossip_cycle=4, repetitions=2, seed=13,
    )
    base.update(overrides)
    return Scenario(**base)


class TestRunReference:
    def test_run_returns_unified_result(self):
        result = Session(make()).run()
        assert isinstance(result, Result)
        assert len(result.records) == 2
        assert all(isinstance(r, RunRecord) for r in result.records)
        assert all(r.stop_reason == "budget" for r in result.records)
        assert result.quality_stats.count == 2
        assert result.elapsed_seconds > 0

    def test_run_one_deterministic_per_repetition(self):
        a = Session(make()).run_one(1)
        b = Session(make()).run_one(1)
        assert a.best_value == b.best_value
        assert a.best_value != Session(make()).run_one(0).best_value

    def test_progress_callback(self):
        seen = []
        Session(make()).run(progress=lambda i, r: seen.append((i, r.quality)))
        assert [i for i, _ in seen] == [0, 1]

    def test_budget_infeasible_raises(self):
        with pytest.raises(ConfigurationError):
            Session(make(nodes=6, total_evaluations=3)).run_one(0)

    def test_observers_forwarded(self):
        class Spy:
            cycles = 0

            def observe(self, engine):
                Spy.cycles += 1

        Session(make(observers=(Spy(),), repetitions=1)).run()
        assert Spy.cycles > 0

    def test_workers_match_sequential(self):
        seq = Session(make()).run(policy=ExecutionPolicy(workers=1))
        par = Session(make()).run(policy=ExecutionPolicy(workers=2))
        assert [r.best_value for r in seq.records] == [
            r.best_value for r in par.records
        ]

    def test_workers_invalid(self):
        with pytest.raises(ValueError):
            Session(make()).run(policy=ExecutionPolicy(workers=0))

    def test_loose_workers_kwarg_removed(self):
        with pytest.raises(TypeError):
            Session(make()).run(workers=2)

    def test_parallel_progress_streams_incrementally(self, monkeypatch):
        """Regression: ``pool.map`` blocked until the *last* repetition,
        then fired every progress callback at once — long parallel runs
        looked hung.  The pool must be consumed lazily (``imap``), so
        each record's callback fires before the next one is pulled.

        The instrumented pool runs repetitions inline and logs the
        interleaving; a blocking ``map`` (or an eagerly materialized
        ``list(imap(...))``) computes every record before the first
        ``progress:`` event and fails the exact-order assertion.
        """
        events: list[str] = []

        class InlinePool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, jobs):
                for i, job in enumerate(jobs):
                    events.append(f"compute:{i}")
                    yield fn(job)

            def map(self, fn, jobs):  # the old, blocking path
                events.append("blocking-map")
                return [fn(job) for job in jobs]

        class InlineCtx:
            def Pool(self, processes):
                return InlinePool()

        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: InlineCtx()
        )
        Session(make(repetitions=3)).run(
            policy=ExecutionPolicy(workers=2),
            progress=lambda i, r: events.append(f"progress:{i}"),
        )
        assert events == [
            "compute:0", "progress:0",
            "compute:1", "progress:1",
            "compute:2", "progress:2",
        ]

    def test_session_requires_scenario(self):
        with pytest.raises(TypeError):
            Session({"function": "sphere"})


class TestEngines:
    def test_fast_engine_same_schema(self):
        ref = Session(make()).run()
        fast = Session(make(engine="fast")).run()
        assert [r.total_evaluations for r in ref.records] == [
            r.total_evaluations for r in fast.records
        ]
        assert all(np.isfinite(r.quality) for r in fast.records)

    def test_fast_single_node_bit_identical(self):
        base = make(nodes=1, particles_per_node=8, gossip_cycle=8,
                    total_evaluations=8 * 20, repetitions=1)
        ref = Session(base).run_one(0)
        fast = Session(base.with_(engine="fast")).run_one(0)
        assert ref.best_value == fast.best_value
        assert ref.cycles == fast.cycles

    def test_event_engine_record(self):
        scenario = make(
            engine="event", horizon=4_000.0, repetitions=1,
            transport=TransportSpec(compute_period=1.0, gossip_period=2.0,
                                    newscast_period=2.0),
        )
        record = Session(scenario).run_one(0)
        assert record.sim_time is not None and record.sim_time > 0
        assert record.stop_reason in ("budget", "horizon")
        assert record.total_evaluations > 0

    def test_event_engine_deterministic(self):
        scenario = make(engine="event", horizon=500.0, repetitions=1)
        a = Session(scenario).run_one(0)
        b = Session(scenario).run_one(0)
        assert a.best_value == b.best_value
        assert a.best_value != Session(scenario).run_one(1).best_value

    def test_event_fast_backend_same_schema(self):
        scenario = make(engine="event", horizon=4_000.0, repetitions=1)
        ref = Session(scenario).run_one(0)
        fast = Session(
            scenario.with_(event_backend="fast")
        ).run_one(0)
        # Same unified record shape and the same physical outcome:
        # both spend the whole budget of the same configuration.
        assert fast.sim_time is not None and fast.sim_time > 0
        assert fast.stop_reason == ref.stop_reason == "budget"
        assert fast.total_evaluations == ref.total_evaluations
        assert fast.messages.coordination_messages > 0
        # Both backends sample the monitor on the same cadence.
        assert len(fast.history) > 0 and len(ref.history) > 0

    def test_event_fast_backend_window_override(self):
        scenario = make(engine="event", horizon=300.0, repetitions=1,
                        event_backend="fast", event_window=0.25)
        from repro.core.eventpath import CohortEventEngine

        session = Session(scenario)
        engine = CohortEventEngine(session.deployment_config(), window=0.25)
        assert engine.window == 0.25
        record = session.run_one(0)
        assert record.total_evaluations > 0

    def test_event_fast_backend_deterministic(self):
        scenario = make(engine="event", horizon=500.0, repetitions=1,
                        event_backend="fast")
        a = Session(scenario).run_one(0)
        b = Session(scenario).run_one(0)
        assert a.best_value == b.best_value
        assert a.best_value != Session(scenario).run_one(1).best_value

    def test_churn_reference_and_fast(self):
        scenario = make(
            churn=ChurnConfig(crash_rate=0.2, join_rate=0.5, min_population=2),
            total_evaluations=6 * 4 * 30,
            repetitions=1,
        )
        for engine in ("reference", "fast"):
            record = Session(scenario.with_(engine=engine)).run_one(0)
            assert np.isfinite(record.quality)
            # Churn events surface in the unified record on every engine.
            assert record.crashes + record.joins > 0


class TestWorkloads:
    def test_topology_star_matches_masterslave_baseline(self):
        scenario = make(topology="star")
        facade = Session(scenario).run()
        lifted = Session(
            Scenario(**vars(scenario.to_experiment_config()), topology="star")
        ).run()
        assert [r.best_value for r in facade.records] == [
            r.best_value for r in lifted.records
        ]

    def test_topology_ring_runs(self):
        record = Session(make(topology="ring", repetitions=1)).run_one(0)
        assert np.isfinite(record.quality)

    def test_centralized_baseline(self):
        result = Session(make(baseline="centralized")).run()
        assert len(result.records) == 2
        assert all(r.total_evaluations == 6 * 4 * 10 for r in result.records)
        assert result.quality_stats.count == 2

    def test_independent_baseline_records_node_qualities(self):
        result = Session(make(baseline="independent")).run()
        for record in result.records:
            assert record.node_qualities is not None
            assert len(record.node_qualities) == 6
            assert record.quality == min(record.node_qualities)


class TestSweepAndTrajectory:
    @pytest.mark.parametrize(
        "axes, expected",
        [
            (dict(nodes=[2, 4], gossip_cycle=[1, 2]),
             [(2, 1), (2, 2), (4, 1), (4, 2)]),
            (dict(gossip_cycle=[2, 4, 6]), [(6, 2), (6, 4), (6, 6)]),
            (dict(nodes=[]), []),
        ],
        ids=["two-axes", "single-axis", "empty-axis"],
    )
    def test_scenarios_cartesian_order(self, axes, expected):
        specs = list(Session(make()).scenarios(**axes))
        assert [(s.nodes, s.gossip_cycle) for s in specs] == expected

    def test_scenarios_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            list(Session(make()).scenarios(bogus=[1]))

    def test_sweep_runs_every_point(self):
        results = Session(make(repetitions=1)).sweep(gossip_cycle=[2, 4])
        assert len(results) == 2
        assert [r.scenario.gossip_cycle for r in results] == [2, 4]
        assert all(isinstance(r, Result) for r in results)

    def test_sweep_invalid_point_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            Session(make()).sweep(engine=["fast", "warp"])

    def test_trajectory_cycle_engine(self):
        history = Session(make(repetitions=1)).trajectory(0)
        assert len(history) > 0
        assert all(isinstance(h, QualitySample) for h in history)
        bests = [h.best_value for h in history]
        assert bests == sorted(bests, reverse=True) or all(
            b <= a + 1e-12 for a, b in zip(bests, bests[1:])
        )

    def test_trajectory_event_engine(self):
        history = Session(
            make(engine="event", horizon=200.0, repetitions=1)
        ).trajectory(0)
        assert len(history) > 0
        assert all(len(sample) == 3 for sample in history)

    def test_trajectory_does_not_mutate_scenario(self):
        scenario = make(repetitions=1)
        Session(scenario).trajectory(0)
        assert scenario.record_history is False


class TestEscapeHatch:
    def test_build_network_populated(self):
        network, spec, tree = Session(make()).build_network()
        assert network.live_count == 6
        assert spec.budget_per_node == 40
        assert tree is not None

    def test_build_network_rejects_fast(self):
        with pytest.raises(ConfigurationError):
            Session(make(engine="fast")).build_network()


class TestResultShape:
    def test_result_qualities(self):
        result = Session(make()).run()
        assert result.qualities() == [r.quality for r in result.records]

    def test_success_rate_with_threshold(self):
        result = Session(make(quality_threshold=1e30)).run()
        assert result.success_rate == 1.0
        assert result.time_stats is not None

    def test_messages_summed(self):
        result = Session(make()).run()
        per_run = sum(r.messages.coordination_messages for r in result.records)
        assert result.messages.coordination_messages == per_run
