"""Tests for the command-line entry point."""

from __future__ import annotations

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import EXPERIMENTS
from repro.experiments.__main__ import main
from repro.experiments.common import run, run_sweep
from repro.scenario import ExecutionPolicy, Session
from repro.utils.exceptions import ConfigurationError


class TestCli:
    def test_exp5_smoke_prints_report(self, capsys):
        code = main(["exp5", "--scale", "smoke", "--quiet", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Experiment 5" in out
        assert "Bytes/second" in out

    def test_csv_dump(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        code = main(
            ["exp5", "--scale", "smoke", "--quiet", "--csv", str(path)]
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("function,")
        assert "sphere" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["exp99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["exp5", "--scale", "galactic"])

    def test_progress_on_stderr_by_default(self, capsys):
        main(["exp5", "--scale", "smoke"])
        err = capsys.readouterr().err
        assert "exp5:smoke" in err

    def test_workers_flag_runs_distributed(self, capsys):
        code = main(
            ["exp5", "--scale", "smoke", "--quiet", "--workers", "2",
             "--seed", "7"]
        )
        assert code == 0
        assert "Experiment 5" in capsys.readouterr().out

    def test_spool_flag_runs_and_resumes(self, tmp_path, capsys):
        from repro.distributed.spool import JobQueue

        spool = str(tmp_path / "spool")
        args = ["exp5", "--scale", "smoke", "--quiet", "--seed", "7",
                "--spool", spool]
        assert main(args) == 0
        assert "Experiment 5" in capsys.readouterr().out
        counts = JobQueue(spool).counts()
        assert counts["results"] == 1 and counts["pending"] == 0
        # Second run resumes from the spool: nothing is re-executed,
        # the report is rebuilt from the stored records.
        assert main(args) == 0
        assert "Experiment 5" in capsys.readouterr().out
        assert JobQueue(spool).counts()["results"] == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["exp5", "--workers", "0"])

    def test_scale_is_validated_against_the_experiments_own_table(self, capsys):
        # exp6 defines "tiny"; the paper sweeps do not.
        assert main(["exp6", "--scale", "tiny", "--dump-scenarios"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["all", "--scale", "tiny", "--dump-scenarios"])
        err = capsys.readouterr().err
        assert "not defined by exp1, exp2, exp3, exp4, exp5;" in err
        assert "selection: full, reduced, smoke" in err

    def test_default_engine_is_reference_for_every_experiment(self, capsys):
        import json

        assert main(["all", "--scale", "smoke", "--dump-scenarios"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert {spec["engine"] for spec in specs} == {"reference"}


class TestShardsRejectedOnce:
    """Sweeps schedule (point, repetition) jobs; ``shards`` is a
    ``Session.run`` knob.  One raise serves every sweep entry point."""

    def _message(self, call) -> str:
        with pytest.raises(ConfigurationError) as exc_info:
            call()
        return str(exc_info.value)

    def test_same_message_from_every_entry_point(self, monkeypatch):
        sharded = ExecutionPolicy(shards=2)
        exp5 = EXPERIMENTS["exp5"]
        points = exp5.points("smoke", seed=7)
        messages = {
            self._message(
                lambda: Session(points[0]).sweep(policy=sharded, nodes=[8])
            ),
            self._message(lambda: run_sweep("t", "s", points, policy=sharded)),
            self._message(lambda: run(exp5, "smoke", policy=sharded)),
        }
        # The CLI has no --shards flag; hand its policy constructor one.
        monkeypatch.setattr(
            cli, "ExecutionPolicy",
            lambda **kwargs: ExecutionPolicy(shards=2, **kwargs),
        )
        messages.add(
            self._message(lambda: main(["exp5", "--scale", "smoke", "--quiet"]))
        )
        assert len(messages) == 1
        assert "shard" in messages.pop()
