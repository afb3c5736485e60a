"""What a process loads: ``import repro`` and a run pay only for their own state.

Each check runs in a fresh interpreter — this test process has long
since imported whatever other tests needed, so it cannot tell.

* networkx is the overlay-analysis extra: ``import repro``, a fast
  NEWSCAST run and a sharded run neither load it nor need it.
* A forked shard worker imports nothing on top of what it inherited
  from the coordinator: a module first loaded inside a worker is paid
  again by every worker of every run.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_RUNS = """
import json, sys
from repro import ExecutionPolicy, Scenario, Session
from repro.sharding import run_sharded_detailed

scenario = Scenario(function="sphere", nodes=32, particles_per_node=4,
                    gossip_cycle=4, total_evaluations=32 * 4 * 5,
                    engine="fast", topology="newscast", seed=3)
_, fragments = run_sharded_detailed(scenario, shards=2)
assert Session(scenario).run(policy=ExecutionPolicy(shards=2)).records
assert Session(scenario).run().records
print(json.dumps({
    "networkx": sorted(m for m in sys.modules
                       if m.split(".")[0] == "networkx" and sys.modules[m]),
    "worker_imports": [f["imports"] for f in fragments],
}))
"""


@functools.cache
def _run(prelude: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", prelude + _RUNS], env=env, timeout=300,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runs_do_not_load_networkx():
    assert _run()["networkx"] == []


def test_runs_succeed_without_networkx_installed():
    # A None entry makes any ``import networkx`` raise ImportError.
    assert _run('import sys; sys.modules["networkx"] = None\n')["networkx"] == []


@pytest.mark.skipif(
    sys.platform != "linux" or "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the coordinator's modules only under fork",
)
def test_forked_shard_workers_import_nothing():
    assert _run()["worker_imports"] == [[], []]
