"""The support table checks itself, exhaustively.

Every ``FEATURES`` row × every column of ``repro.scenario.support``:
an ``UNSUPPORTED`` cell must raise on the row's field with the table's
reason, a supported cell must construct *and run* to a finite record
that survives strict JSON.  The enabling override of each row lives
here, beside the test (dotted field → value, everything else derived).
A scenario is a plain value, so every row also runs as a spool-style
job, with the record it gives in process.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.distributed.service import run_sweep_jobs
from repro.scenario import (
    AdversarySpec,
    DynamicsSpec,
    ExecutionPolicy,
    RunRecord,
    Scenario,
    ScenarioValidationError,
    Session,
    TransportSpec,
    support,
)
from repro.scenario.session import run_points
from repro.sharding import run_sharded_detailed
from repro.utils.config import ChurnConfig
from repro.utils.exceptions import ConfigurationError

#: n = 8, three cycles (or a 6 s horizon) of four evaluations each.
BASE = dict(function="sphere", nodes=8, particles_per_node=4,
            total_evaluations=8 * 12, gossip_cycle=4, seed=3)

REGIME = {
    "reference": {},
    "fast": {"engine": "fast"},
    "event": {"engine": "event", "horizon": 6.0},
    "event-fast": {"engine": "event", "event_backend": "fast",
                   "horizon": 6.0},
    "centralized": {"baseline": "centralized"},
    "independent": {"baseline": "independent"},
}


#: The smallest override that switches each row on.
ENABLE = {
    "topology oracle": {"topology": "oracle"},
    "topology cyclon / ring / kregular / star": {"topology": "ring"},
    "rng_mode batched": {"rng_mode": "batched"},
    "churn": {"churn": ChurnConfig(crash_rate=0.1, join_rate=0.1)},
    "dynamics": {"dynamics": DynamicsSpec(kind="shift", period=2.0)},
    "adversary": {"adversary": AdversarySpec(fraction=0.25)},
    "quality_threshold": {"quality_threshold": 1e-9},
    "max_cycles": {"max_cycles": 2},
    "record_history": {"record_history": True},
    "swarm_size": {"swarm_size": 6},
    "event_window": {"event_window": 0.25},
    "latency beyond the fastest timer period": {
        "transport": TransportSpec(latency_min=2.0, latency_max=8.0)},
    "transport other than the default": {
        "transport": TransportSpec(loss_rate=0.2)},
    # on wherever the regime column is not ``fast``
    "engine other than fast": {},
}

#: How a supported scenario runs under each execution column, in process.
EXECUTE = {
    "shards": lambda s: Session(s).run(
        policy=ExecutionPolicy(shards=2)).records[0],
}

#: Every way into an execution column; an unsupported cell must stop
#: each of them before a process starts.
ENTRIES = {
    "shards": [
        lambda s, tmp: Session(s).run(policy=ExecutionPolicy(shards=2)),
        lambda s, tmp: run_sharded_detailed(s, shards=2),
    ],
}


def build(row: str, regime: str) -> Scenario:
    return Scenario(**(BASE | ENABLE[row] | REGIME[regime]))


def at_home(row: str) -> Scenario:
    """``row`` switched on under a regime that runs it — ``fast`` first,
    the one regime ``shards`` rides on."""
    for regime in ("fast", *support.REGIMES):
        if (row, regime) not in support.UNSUPPORTED:
            scenario = build(row, regime)
            if support.FEATURES[row][1](scenario):
                return scenario
    raise AssertionError(f"no regime runs {row!r}")


def assert_cell_error(err, row: str, column: str) -> None:
    assert err.value.field == support.FEATURES[row][0]
    message = str(err.value)
    assert message.startswith(f"Scenario.{err.value.field}: ")
    assert support.UNSUPPORTED[row, column] in message
    assert "(unsupported under " in message


def assert_finite_strict_json(record: RunRecord) -> None:
    assert math.isfinite(record.best_value)
    text = json.dumps(record.to_dict(), allow_nan=False)
    # to_dict, not ==: the event engines' NaN spread never equals itself
    assert RunRecord.from_dict(json.loads(text)).to_dict() == record.to_dict()


def test_every_row_has_an_enabling_override_and_every_cell_a_row():
    assert list(ENABLE) == list(support.FEATURES)
    assert set(REGIME) == set(support.REGIMES)
    assert set(EXECUTE) | set(REGIME) == set(support.COLUMNS)
    for row, column in support.UNSUPPORTED:
        assert row in support.FEATURES and column in support.COLUMNS


def test_every_row_and_every_column_has_an_unsupported_cell():
    """A row that runs everywhere is no feature with a validity domain,
    and a column where everything runs is no regime: neither belongs in
    the table."""
    assert {row for row, _ in support.UNSUPPORTED} == set(support.FEATURES)
    assert {column for _, column in support.UNSUPPORTED} == set(support.COLUMNS)


@pytest.mark.filterwarnings("ignore:.*kernel backend:RuntimeWarning")
@pytest.mark.parametrize("regime", support.REGIMES)
@pytest.mark.parametrize("row", support.FEATURES)
def test_regime_cell(row, regime):
    if (row, regime) in support.UNSUPPORTED:
        with pytest.raises(ScenarioValidationError) as err:
            build(row, regime)
        assert_cell_error(err, row, regime)
        assert f"'{regime}'" in str(err.value)
        return
    scenario = build(row, regime)
    assert scenario.regime == regime
    # the one vacuous cell: a fast scenario is not "other than fast"
    assert support.FEATURES[row][1](scenario) or (row, regime) == (
        "engine other than fast", "fast")
    assert_finite_strict_json(Session(scenario).run_one(0))


@pytest.mark.filterwarnings("ignore:.*kernel backend:RuntimeWarning")
@pytest.mark.parametrize("column", EXECUTE)
@pytest.mark.parametrize("row", support.FEATURES)
def test_execution_cell(row, column, tmp_path):
    if (row, column) not in support.UNSUPPORTED:
        assert_finite_strict_json(EXECUTE[column](at_home(row)))
        return
    for enter in ENTRIES[column]:
        with pytest.raises(ScenarioValidationError) as err:
            enter(at_home(row), tmp_path / "spool")
        assert_cell_error(err, row, column)
    assert not (tmp_path / "spool").exists()


@pytest.mark.parametrize("column", ["jobs", "workers", "Shards"])
def test_check_refuses_a_column_the_table_lacks(column):
    """A stale column name (``jobs`` was one) must not pass as "checked"."""
    with pytest.raises(ValueError, match=f"no support column '{column}'"):
        support.check(build("churn", "fast"), column)


def test_a_cell_error_is_still_a_configuration_and_value_error():
    with pytest.raises(ConfigurationError):
        build("churn", "centralized")
    with pytest.raises(ValueError):
        Session(build("churn", "fast")).run(policy=ExecutionPolicy(shards=2))


@pytest.mark.filterwarnings("ignore:.*kernel backend:RuntimeWarning")
@pytest.mark.parametrize("row", support.FEATURES)
def test_every_row_runs_as_a_job(row, tmp_path):
    scenario = at_home(row)
    alone = Session(scenario).run_one(0).to_dict()
    assert run_sweep_jobs([scenario])[0].records[0].to_dict() == alone
    spooled = run_points([scenario], policy=ExecutionPolicy(spool=str(tmp_path)))
    assert spooled[0].records[0].to_dict() == alone


def test_readme_table_is_the_generated_one():
    from pathlib import Path

    readme = (Path(__file__).parents[2] / "README.md").read_text("utf-8")
    begin, end = "<!-- support:begin -->\n", "\n<!-- support:end -->"
    block = readme[readme.index(begin) + len(begin):readme.index(end)]
    assert block == support.markdown()
