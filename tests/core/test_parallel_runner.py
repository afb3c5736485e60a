"""Tests for process-parallel repetition execution."""

from __future__ import annotations

import warnings

import pytest

from repro.scenario import ExecutionPolicy, Scenario, Session


def make_config(**overrides) -> Scenario:
    base = dict(
        function="sphere",
        nodes=4,
        particles_per_node=4,
        total_evaluations=800,
        gossip_cycle=4,
        repetitions=4,
        seed=50,
    )
    base.update(overrides)
    return Scenario(**base)


class TestParallelRuns:
    def test_parallel_equals_sequential(self):
        seq = Session(make_config()).run(policy=ExecutionPolicy(workers=1))
        par = Session(make_config()).run(policy=ExecutionPolicy(workers=2))
        assert [r.best_value for r in par.records] == [
            r.best_value for r in seq.records
        ]
        assert [r.total_evaluations for r in par.records] == [
            r.total_evaluations for r in seq.records
        ]

    def test_progress_called_in_order(self):
        seen = []
        Session(make_config(repetitions=3)).run(
            progress=lambda i, r: seen.append(i),
            policy=ExecutionPolicy(workers=2),
        )
        assert seen == [0, 1, 2]

    def test_single_repetition_stays_inline(self):
        result = Session(make_config(repetitions=1)).run(
            policy=ExecutionPolicy(workers=4)
        )
        assert len(result.records) == 1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            Session(make_config()).run(policy=ExecutionPolicy(workers=0))

    def test_observers_rejected_in_parallel(self):
        with pytest.raises(ValueError):
            Session(make_config(observers=(object(),))).run(
                policy=ExecutionPolicy(workers=2)
            )


class TestDeploymentCli:
    def test_cli_runs(self, capsys):
        from repro.deployment.__main__ import main

        code = main(
            ["--function", "sphere", "--nodes", "6", "--budget", "200",
             "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "solution quality" in out
        assert "stop reason         : budget" in out

    def test_cli_threshold(self, capsys):
        from repro.deployment.__main__ import main

        code = main(
            ["--nodes", "8", "--budget", "50000", "--threshold", "1e-2",
             "--seed", "3"]
        )
        assert code == 0
        assert "threshold reached" in capsys.readouterr().out

    def test_cli_emits_no_warning(self, capsys):
        from repro.deployment.__main__ import main

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--nodes", "4", "--budget", "40", "--horizon", "50"])
        assert code == 0
        assert "solution quality" in capsys.readouterr().out
