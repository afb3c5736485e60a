"""Tests for the command-line entry point."""

from __future__ import annotations

import hashlib

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import EXPERIMENTS
from repro.experiments.__main__ import main
from repro.experiments.common import run, run_sweep
from repro.scenario import ExecutionPolicy, Session
from repro.utils.exceptions import ConfigurationError

#: sha256 of ``main([name, "--scale", "smoke", "--seed", "42", "--engine",
#: engine, "--dump-scenarios"])``'s stdout, computed at commit cb25baf
#: (the last one whose sweeps were lifted ``ExperimentConfig`` lists):
#: the points an experiment runs must not move when its generator does.
DUMP_SHA256 = {
    ("exp1", "reference"):
        "1f4414930f55a787b3b85d45dab1d221880dcb3b3dc9adc20f06f29242bc8019",
    ("exp1", "fast"):
        "19c0c1c998f9efe07d9fcd8aa93c5fa7faabd4dc7f3e1d4b2e48fd71c8eb7f6e",
    ("exp2", "reference"):
        "d3b075d77a149602bba75f9b218642f016cf61c30cae7ec29665b876b2dc40e8",
    ("exp2", "fast"):
        "a459f28c50415becd4bbe5e103fdea098e7e54c08e071275358e759bdd1891cf",
    ("exp3", "reference"):
        "0e32d2073a14c4083786f381ed59b2b2dde62b3a092820a5c4cdbdbe05faa37e",
    ("exp3", "fast"):
        "0e9b17943ebec750c7613e910197d0a83dcc6bbd5e5d3f1f8d978804cdc9b9ed",
    ("exp4", "reference"):
        "9de32c7d6accab9ee96c86abb4508dd922cea7b576f8b83a7abfb2b803a6fe64",
    ("exp4", "fast"):
        "a0964a0d835b3e022d1b03296795ac2e3f4e2d86ebaf5350b754d69e8176aa0b",
    ("exp5", "reference"):
        "138b7acd4bcf14bbf0b4c1ffe09f9fb3ce86499dc856cc58b426809a5c38e332",
    ("exp5", "fast"):
        "7c3622b809477acb6a46dd55d83610548d2dad850a388b92e9bb8474506f361f",
    ("exp6", "reference"):
        "232f7f3cea7411771bb5ca34405c020dba972904db5f2c2605163393d36381ef",
    ("exp6", "fast"):
        "b5fa67636a580ca1f42b4a9d9ffbf72fbd47dfde8fb029ff4f3d6f6780b6568a",
}


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


class TestPinnedSweeps:
    @pytest.mark.parametrize("name,engine", sorted(DUMP_SHA256))
    def test_dump_scenarios_digest(self, name, engine, capsys):
        code = main([name, "--scale", "smoke", "--seed", "42",
                     "--engine", engine, "--dump-scenarios"])
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DUMP_SHA256[name, engine]

    def test_every_experiment_is_pinned(self):
        assert {name for name, _ in DUMP_SHA256} == set(EXPERIMENTS)


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
