"""Smoke test of the benchmark harness (tier-1 collects it; ~10 s).

Runs ``bench/run.py`` the way a user and the benchmark driver do, at
the ``tiny`` scale (n <= 128, 2 repetitions), writing only under
``tmp_path``, and checks that what it prints is what ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_harness(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def document(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench")
    proc = run_harness(
        "--scale", "tiny", "--seconds", "0", "--seed", "3",
        "--out", str(out), "-o", str(out / "doc.json"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads((out / "doc.json").read_text())
    doc["_path"] = str(out / "doc.json")
    doc["_stdout"] = proc.stdout
    return doc


def test_benchmark_json_is_within_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["paths"] == [BENCH.name]


def test_document_names_equal_benchmark_json(document):
    assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    produced: set[str] = set()
    for name, workload in document["workloads"].items():
        assert workload["failed"] == 0 and workload["trace"]["failed"] == 0, name
        assert workload["attempted"] >= 2
        end_to_end = workload["end_to_end"]
        assert list(end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
        for metric in SPEC["end_to_end"]:
            entry = end_to_end[metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0 and entry["n"] == len(entry["samples"])
        assert re.fullmatch(r"[0-9a-f]{64}", workload["result_digest"])
        layers = workload["trace"]["layers"]
        assert layers and set(layers) <= set(declared)
        assert all(layers[m]["unit"] == declared[m] for m in layers)
        produced |= set(layers)
    # Every declared layer metric comes from at least one workload.
    assert produced == set(declared)
    # One command printed every metric by name, with its unit.
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s.*{re.escape(metric['unit'])}",
            document["_stdout"], re.MULTILINE,
        ), metric["name"]


def test_layer_counts_tell_the_workloads_apart(document):
    layers = {
        name: w["trace"]["layers"] for name, w in document["workloads"].items()
    }
    assert layers["gossip_steady"]["topology.on_join.calls"]["value"] == 0
    assert layers["churn_hostile"]["topology.on_join.calls"]["value"] > 0
    assert layers["churn_hostile"]["adversary.verifications"]["value"] > 0
    assert layers["async_event"]["eventpath.transport_sent"]["value"] > 0
    sweep = layers["sweep_spool"]
    assert sweep["spool.complete.calls"]["value"] == sweep["jobs.execute.calls"]["value"]
    assert sweep["spool.failed"]["value"] == 0
    assert layers["sharded_pair"]["sharding.exchange.posts"]["value"] > 0
    assert "spool.submit.calls" not in layers["gossip_steady"]


def test_compare_accepts_a_document_against_itself(document):
    proc = run_harness(
        document["_path"], document["_path"], "--same-code",
        script=BENCH / "compare.py",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "regressed: none" in proc.stdout


def test_compare_flags_a_regression(document, tmp_path):
    worse = json.loads(Path(document["_path"]).read_text())
    entry = worse["workloads"]["sweep_spool"]["end_to_end"]["peak_rss_mb"]
    entry["value"] *= 1.5
    entry["samples"] = [entry["value"]]
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    proc = run_harness(document["_path"], str(path), script=BENCH / "compare.py")
    assert proc.returncode == 1
    assert "regressed: sweep_spool.peak_rss_mb" in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_line(tmp_path, trace):
    proc = run_harness(
        "--workload", "sweep_spool", "--seed", "5", "--seconds", "0",
        "--trace", str(trace), "--scale", "tiny", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = line["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert (tmp_path / "trace_sweep_spool.json").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / BENCH.name,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_harness(
        "--workload", "gossip_steady", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py",
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
