"""ExecutionPolicy: one frozen value for every how-to-run knob."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.scenario import (
    ExecutionPolicy,
    Scenario,
    ScenarioValidationError,
    Session,
)
from repro.utils.exceptions import ConfigurationError


def _scenario(**overrides) -> Scenario:
    base = dict(
        function="sphere",
        nodes=16,
        total_evaluations=320,
        max_cycles=10,
        engine="fast",
        repetitions=1,
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestValidation:
    def test_defaults_are_sequential(self):
        policy = ExecutionPolicy()
        assert policy.workers == 1
        assert policy.spool is None
        assert policy.shards == 1

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"workers": 0}, "workers"),
            ({"shards": 0}, "shards"),
            ({"stale_after": -1.0}, "stale_after"),
            ({"heartbeat_interval": 0.0}, "heartbeat_interval"),
            ({"job_timeout": -5.0}, "job_timeout"),
            # two fields of one value: repetition pool or shard processes
            ({"workers": 2, "shards": 2}, "workers"),
        ],
    )
    def test_bad_values_name_the_field(self, kwargs, field):
        with pytest.raises(ScenarioValidationError,
                           match=f"^ExecutionPolicy.{field}: "):
            ExecutionPolicy(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().workers = 2

    def test_round_trip(self):
        for policy in (
            ExecutionPolicy(workers=3, spool="/tmp/x", stale_after=60.0),
            ExecutionPolicy(spool="/tmp/x", shards=2),
        ):
            assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    def test_with_returns_modified_copy(self):
        policy = ExecutionPolicy(spool="/tmp/x")
        assert policy.with_(shards=4) == ExecutionPolicy(spool="/tmp/x", shards=4)
        assert policy.shards == 1


class TestLooseKwargsRemoved:
    def test_from_kwargs_is_gone(self):
        assert not hasattr(ExecutionPolicy, "from_kwargs")

    def test_run_rejects_non_policy_value(self):
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            Session(_scenario()).run(policy={"workers": 2})

    def test_sweep_rejects_loose_spool_kwarg(self, tmp_path):
        # `spool` is no longer a sweep parameter; it lands in **axes
        # and is rejected as an execution knob, pointing at the policy.
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            Session(_scenario()).sweep(spool=str(tmp_path / "s"), nodes=[8])


class TestSessionSurface:
    def test_sweep_policy_object_spool(self, tmp_path):
        out = Session(_scenario()).sweep(
            policy=ExecutionPolicy(spool=str(tmp_path / "spool")), nodes=[8]
        )
        assert len(out) == 1

    def test_sweep_rejects_shards(self):
        with pytest.raises(ConfigurationError, match="shard"):
            Session(_scenario()).sweep(
                policy=ExecutionPolicy(shards=2), nodes=[8]
            )

    def test_run_with_shards_routes_through_sharded_runtime(self):
        result = Session(_scenario()).run(policy=ExecutionPolicy(shards=2))
        assert result.records[0].stop_reason in ("budget", "cycle cap")

    def test_run_rejects_workers_combined_with_shards(self):
        with pytest.raises(ConfigurationError, match="workers"):
            Session(_scenario()).run(
                policy=ExecutionPolicy(shards=2, workers=2)
            )


def test_scenario_from_dict_points_execution_keys_at_policy():
    spec = _scenario().to_dict()
    spec["workers"] = 4
    with pytest.raises(ScenarioValidationError) as exc_info:
        Scenario.from_dict(spec)
    message = str(exc_info.value)
    assert "workers" in message
    assert "ExecutionPolicy" in message
    assert "execution knob" in message


def test_scenario_from_dict_unknown_key_stays_generic():
    spec = _scenario().to_dict()
    spec["frobnicate"] = 1
    with pytest.raises(ScenarioValidationError,
                       match="^Scenario.frobnicate: unknown field$"):
        Scenario.from_dict(spec)


def test_scenario_from_dict_round_trip():
    scenario = _scenario(
        topology="newscast", record_history=True, quality_threshold=0.5
    )
    assert Scenario.from_dict(scenario.to_dict()) == scenario


#: Run from stdin, ``__main__.__file__`` is ``"<stdin>"``: a worker that
#: re-imported ``__main__`` would die on it, and the pool would respawn
#: it forever.
STDIN_SCRIPT = """
import json, sys
from repro.scenario import ExecutionPolicy, Scenario, Session
scenario = Scenario.from_dict(json.loads(sys.argv[1]))
records = Session(scenario).run(policy=ExecutionPolicy(workers=2)).records
print(json.dumps([record.to_dict() for record in records]))
"""


def test_worker_pool_runs_a_script_fed_on_stdin():
    scenario = _scenario(repetitions=2)
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-", json.dumps(scenario.to_dict())], input=STDIN_SCRIPT,
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    sequential = Session(scenario).run().records
    assert json.loads(proc.stdout) == [record.to_dict() for record in sequential]
