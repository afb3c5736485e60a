"""Tests for the experiment sweep definitions (fast: points only)."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments import (
    exp1_swarm_size,
    exp2_network_size,
    exp3_cycle_length,
    exp4_time_to_quality,
)
from repro.experiments.common import run
from repro.functions.suite import PAPER_FUNCTIONS
from repro.scenario import ExecutionPolicy, Session
from repro.utils.exceptions import ConfigurationError


class TestRegistry:
    def test_experiments_registered(self):
        assert sorted(EXPERIMENTS) == [
            "exp1", "exp2", "exp3", "exp4", "exp5", "exp6",
        ]

    @pytest.mark.parametrize(
        "name", sorted(["exp1", "exp2", "exp3", "exp4", "exp5", "exp6"])
    )
    def test_module_interface(self, name):
        module = EXPERIMENTS[name]
        for attr in ("points", "report", "SCALES", "NAME", "TITLE"):
            assert hasattr(module, attr)
        # One point generator, one runner (common.run): the pre-PR-16
        # per-module entry points are gone, not aliased.
        for attr in ("configs", "scenarios", "run", "main"):
            assert not hasattr(module, attr)
        # exp6 additionally defines a "tiny" CI-smoke scale.
        assert {"smoke", "reduced", "full"} <= set(module.SCALES)

    @pytest.mark.parametrize(
        "name", ["exp1", "exp2", "exp3", "exp4", "exp5", "exp6"]
    )
    def test_unknown_scale_raises(self, name):
        with pytest.raises(ConfigurationError):
            EXPERIMENTS[name].points("gigantic")


class TestExp1Configs:
    def test_full_matches_paper_extents(self):
        confs = exp1_swarm_size.points("full")
        functions = {c.function for c in confs}
        assert functions == set(PAPER_FUNCTIONS)
        nodes = {c.nodes for c in confs}
        assert nodes == {1, 10, 100, 1000}
        particles = {c.particles_per_node for c in confs}
        assert particles == {1, 4, 8, 16, 32}
        assert all(c.repetitions == 50 for c in confs)
        # e = 1000*n and r = k everywhere.
        assert all(c.total_evaluations == 1000 * c.nodes for c in confs)
        assert all(c.gossip_cycle == c.particles_per_node for c in confs)

    def test_point_count(self):
        assert len(exp1_swarm_size.points("full")) == 6 * 4 * 5

    def test_seed_propagates(self):
        confs = exp1_swarm_size.points("smoke", seed=123)
        assert all(c.seed == 123 for c in confs)


class TestExp2Configs:
    def test_full_extents(self):
        confs = exp2_network_size.points("full")
        assert {c.total_evaluations for c in confs} == {2**20}
        assert max(c.nodes for c in confs) == 2**16
        assert all(c.evaluations_per_node >= 1 for c in confs)

    def test_infeasible_points_skipped(self):
        confs = exp2_network_size.points("full")
        assert all(
            c.total_evaluations // c.nodes >= c.particles_per_node for c in confs
        )


class TestExp3Configs:
    def test_k_fixed_at_16(self):
        confs = exp3_cycle_length.points("full")
        assert {c.particles_per_node for c in confs} == {16}

    def test_cycle_sweep(self):
        confs = exp3_cycle_length.points("full")
        assert {c.gossip_cycle for c in confs} == set(range(2, 66, 2))


class TestExp4Configs:
    def test_threshold_set(self):
        confs = exp4_time_to_quality.points("full")
        assert all(c.quality_threshold == 1e-10 for c in confs)

    def test_node_range(self):
        confs = exp4_time_to_quality.points("full")
        assert max(c.nodes for c in confs) == 2**10
        assert min(c.nodes for c in confs) == 1


class TestExp5Overhead:
    def test_smoke_run_and_report(self):
        from repro.experiments import exp5_overhead

        data = run(exp5_overhead, scale="smoke", seed=3)
        report = exp5_overhead.report(data)
        assert "Bytes/second" in report
        assert "few bytes per second" in report

    def test_measured_counts_positive(self):
        from repro.experiments import exp5_overhead

        point = exp5_overhead.points("smoke", seed=3)[0]
        counts = exp5_overhead.measured_overhead(
            Session(point).run_one(0), point.nodes
        )
        # ≈2 NEWSCAST messages per node per cycle (one exchange = 2)
        assert 1.0 < counts["newscast_msgs"] < 3.0
        # coordination: 1 offer per node per cycle + replies in [0, 1].
        assert 0.9 < counts["coordination_msgs"] < 2.1

    def test_report_reads_the_sweeps_own_record(self, monkeypatch):
        """report() derives its counts from repetition 0 of the Result it
        is handed — it used to re-run that repetition on the reference
        engine, whatever engine the sweep ran on."""
        from repro.experiments import exp5_overhead

        data = run(exp5_overhead, scale="smoke", seed=3, engine="fast")
        res = data.entries[0]
        assert res.scenario.engine == "fast"
        counts = exp5_overhead.measured_overhead(
            res.records[0], res.scenario.nodes
        )

        def no_simulation(self, repetition=0):
            raise AssertionError("report() must not simulate")

        monkeypatch.setattr(Session, "run_one", no_simulation)
        report = exp5_overhead.report(data)
        assert (
            f"{counts['newscast_msgs']:.2f} NEWSCAST msgs, "
            f"{counts['coordination_msgs']:.2f} coordination msgs"
        ) in report


class TestExp6DynamicHostile:
    """Tiny factorial, fast engine: sequential vs every cell through
    the spool (submit -> worker -> collect)."""

    @pytest.fixture(scope="class")
    def sequential(self):
        from repro.experiments import exp6_dynamic_hostile

        return run(exp6_dynamic_hostile, scale="tiny", seed=3)

    @pytest.fixture(scope="class")
    def spooled(self, tmp_path_factory):
        from repro.experiments import exp6_dynamic_hostile

        spool = tmp_path_factory.mktemp("exp6-spool")
        return run(
            exp6_dynamic_hostile, scale="tiny", seed=3,
            policy=ExecutionPolicy(spool=str(spool)),
        )

    def test_python_level_default_engine_is_fast(self, sequential):
        assert {res.scenario.engine for res in sequential.entries} == {"fast"}

    def test_spool_matches_sequential_cell_for_cell(self, sequential, spooled):
        assert len(spooled.entries) == len(sequential.entries) == 9
        for seq, spo in zip(sequential.entries, spooled.entries):
            assert spo.scenario == seq.scenario
            assert [r.to_dict() for r in spo.records] == [
                r.to_dict() for r in seq.records
            ]

    @pytest.mark.parametrize("path", ["sequential", "spooled"])
    def test_problem_layer_metrics_survive(self, path, request):
        """What the removed ``_spool_leg`` raised RuntimeError for: the
        dynamics metrics and adversary tallies reach the records."""
        from repro.experiments.exp6_dynamic_hostile import CELLS

        data = request.getfixturevalue(path)
        for (label, _, _), res in zip(CELLS, data.entries):
            kind, role = label.split("/")
            assert len(res.records) == 2
            for record in res.records:
                if kind in ("drift", "shift"):
                    assert record.dynamics is not None, label
                if role in ("false-best", "defended"):
                    assert record.adversary is not None, label

    def test_report_lists_the_nine_cells(self, sequential):
        from repro.experiments.exp6_dynamic_hostile import CELLS, report

        text = report(sequential)
        assert len(CELLS) == 9
        for label, _, _ in CELLS:
            assert any(
                line.startswith(label) for line in text.splitlines()
            ), label
