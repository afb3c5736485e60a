"""Validation is total: a ``Scenario`` that constructs, runs.

Every draw starts from a small scenario under one of the six regimes
and replaces up to three fields with values from that field's pool:
valid values, wrong types, NumPy scalars, out-of-range values, unknown
names, NaN and inf, and a callable topology (a removed extension).  Each
draw must either fail construction with a ``ScenarioValidationError``
naming a field, or run one repetition (n ≤ 8, a budget of ≤ 3 cycles)
and survive the strict-JSON round trip with the same job id.

The second test sets one field at a time, of each of the twelve value
shapes, from the same kind of pool (built from the field's rule for
the fields ``POOLS`` does not list): a bundle field through
``Scenario.from_dict`` by its dotted path, the policy and job fields
through their ``from_dict``.  Each draw fails naming that path, or
constructs and survives the strict-JSON round trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.deployment.runtime import DeploymentConfig
from repro.distributed.jobs import SweepJob
from repro.scenario import (
    AdversarySpec,
    DynamicsSpec,
    ExecutionPolicy,
    RunRecord,
    Scenario,
    ScenarioValidationError,
    Session,
    TransportSpec,
)
from repro.utils import validate as v
from repro.utils.config import (
    ChurnConfig,
    CoordinationConfig,
    ExperimentConfig,
    NewscastConfig,
    PSOConfig,
)

NAN, INF = float("nan"), float("inf")

BASE = dict(function="sphere", nodes=4, particles_per_node=2,
            total_evaluations=4 * 2 * 3, gossip_cycle=2, seed=3)

REGIMES = [
    {},
    {"engine": "fast"},
    {"engine": "event", "horizon": 3.0},
    {"engine": "event", "event_backend": "fast", "horizon": 3.0},
    {"baseline": "centralized"},
    {"baseline": "independent"},
]

#: Stands for "n · r · cycles" of the drawn scenario (a budget of 1–3 cycles).
BUDGET = object()

POOLS = {
    "function": ["rastrigin", "Sphere", np.str_("levy"), "nope", "", 3,
                 None],
    "nodes": [1, 2, 8, np.int64(3), np.uint8(5), 0, -2, 4.0, "4", True,
              NAN, INF],
    "particles_per_node": [1, 3, np.int32(2), 0, 2.5, "2", None],
    "total_evaluations": [BUDGET, BUDGET, np.int64(24), 2, 0, 24.0, INF,
                          "24"],
    "gossip_cycle": [1, 3, np.int16(2), 0, -1, 2.0, False],
    "repetitions": [2, np.int64(3), 0, 1.0, None],
    "seed": [0, 2**40, np.uint64(11), -1, 1.5, "3", NAN],
    "engine": ["reference", "fast", "event", "warp", 1],
    "topology": ["cyclon", "ring", "kregular", "star", "oracle", "torus",
                 lambda node_id: None],
    "rng_mode": ["strict", "batched", "philox"],
    "kernel_backend": ["numpy", "numba"],
    "baseline": [None, "centralized", "independent", "quantum"],
    "swarm_size": [None, 6, np.int16(5), 0, 6.5],
    "synchronous": [False, np.bool_(True), "no", 1],
    "quality_threshold": [None, 1e-3, np.float32(0.5), 10, 0.0, -1.0, NAN,
                          INF, "1e-3"],
    "horizon": [None, 2.0, 3, np.float64(2.5), 0.0, -1.0, NAN, INF, "3"],
    "event_backend": ["reference", "fast", "nope"],
    "event_window": [None, 0.5, np.float32(0.25), 0.0, NAN, INF],
    "max_cycles": [None, 2, np.int64(1), 0, 2.0],
    "record_history": [True, np.bool_(True), "yes", None],
    "churn": [ChurnConfig(crash_rate=0.2, join_rate=0.2), 0.1, None],
    "transport": [TransportSpec(loss_rate=0.2), {"loss_rate": 0.2}],
    "newscast": [NewscastConfig(view_size=3), NewscastConfig(view_size=1), 5],
    "pso": [PSOConfig(inertia=1.0, c1=2.0, c2=2.0), "pso"],
    "coordination": [CoordinationConfig(mode="pull"), None],
    "dynamics": [DynamicsSpec(kind="shift", period=2.0), "shift"],
    "adversary": [AdversarySpec(fraction=0.25), 0.25],
}

#: Every field has a pool.
assert set(POOLS) == {f.name for f in fields(Scenario)}


@st.composite
def drawn_fields(draw) -> dict:
    chosen = draw(st.lists(st.sampled_from(sorted(POOLS)), max_size=3,
                           unique=True))
    kwargs = BASE | draw(st.sampled_from(REGIMES))
    for name in chosen:
        kwargs[name] = draw(st.sampled_from(POOLS[name]))
    nodes = kwargs["nodes"]
    if kwargs["total_evaluations"] is BUDGET:
        r = kwargs["gossip_cycle"]
        per_node = r if isinstance(r, int) and 0 < r <= 4 else 2
        n = nodes if isinstance(nodes, int) and 0 < nodes <= 8 else 4
        kwargs["total_evaluations"] = n * per_node * draw(st.integers(1, 3))
    return kwargs


def job_id(scenario: Scenario) -> str:
    return SweepJob(0, scenario.to_dict(), (0,)).job_id


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_fields())
def test_a_scenario_that_constructs_runs(kwargs):
    try:
        scenario = Scenario(**kwargs)
    except ScenarioValidationError as err:
        assert err.field.split(".")[0] in POOLS, err
        return
    assert scenario.nodes <= 8
    record = Session(scenario).run_one(0)
    assert math.isfinite(record.best_value)
    text = json.dumps(record.to_dict(), allow_nan=False)
    assert RunRecord.from_dict(json.loads(text)).to_dict() == record.to_dict()
    text = json.dumps(scenario.to_dict(), allow_nan=False)
    again = Scenario.from_dict(json.loads(text))
    assert again == scenario
    assert job_id(again) == job_id(scenario)


def pool(rule: v.Rule) -> list:
    """Valid values, their NumPy spellings, wrong types, out-of-range
    values, NaN and inf for one rule of the vocabulary."""
    if isinstance(rule, v.optional):
        return [None, *pool(rule.rule)]
    if isinstance(rule, v.count):
        lo = rule.min
        return [lo, lo + 2, np.int64(lo + 1), np.uint8(lo), lo - 1, lo + 0.5,
                float(lo), str(lo), True, NAN, None]
    if isinstance(rule, v.real):
        lo = next((b for b in (rule.min, rule.above) if b is not None), -1.0)
        hi = next((b for b in (rule.max, rule.below) if b is not None), lo + 4)
        mid = (lo + hi) / 2
        edges = [b for b in (rule.min, rule.above, rule.max, rule.below)
                 if b is not None]
        return [mid, np.float32(mid), np.float64(mid), int(hi), *edges,
                lo - 1, hi + 1, NAN, INF, -INF, str(mid), True, None]
    if isinstance(rule, v.choice):
        return [*rule.names, np.str_(rule.names[-1]), "nope", 1, None]
    if isinstance(rule, v.sequence):
        return [[0, 2], (1,), [], [1, 1], "0", 0, None,
                *([item] for item in pool(rule.item))]
    if isinstance(rule, v.bundle):
        return [rule.cls(), {}, 0.1, None]
    if rule is v.flag:
        return [True, False, np.bool_(True), 1, 0, "yes", None]
    if rule is v.text:
        return ["sphere", np.str_("sphere"), "", 3, None]
    assert rule is v.mapping
    return [{}, {"function": "sphere"}, [], "x", None]


#: Scenario bundles and the regime that honours each one's fields.
BUNDLE_BASES = {name: BASE | ({"engine": "event", "horizon": 3.0}
                              if name == "transport" else {})
                for name, rule in Scenario.RULES.items()
                if isinstance(rule, v.bundle)}
EXPERIMENT = dict(function="sphere", nodes=4, particles_per_node=2,
                  total_evaluations=24, gossip_cycle=2)
JOB = SweepJob(0, Scenario(**BASE).to_dict(), (0,)).to_dict()

#: A cross-field check names the field it was written against.
COUPLED = {
    ("Scenario", "engine"): "horizon",
    ("Scenario", "transport.latency_min"): "transport.latency_max",
    ("DeploymentConfig", "latency_min"): "latency_max",
}


def scenario_draws():
    for name, values in POOLS.items():
        for value in values:
            data = dict(BASE)
            if value is BUDGET:
                value = 24
            yield name, value, data | {name: value}
    for name, base in BUNDLE_BASES.items():
        for field_name, rule in Scenario.RULES[name].cls.RULES.items():
            for value in pool(rule):
                yield f"{name}.{field_name}", value, base | {name: {field_name: value}}


def shape_draws():
    """``(shape, path, value, build)`` for one field of each shape."""
    for path, value, data in scenario_draws():
        yield Scenario, path, value, lambda data=data: Scenario.from_dict(data)
    for shape, build in (
        (ExecutionPolicy, ExecutionPolicy.from_dict),
        (SweepJob, lambda data: SweepJob.from_dict(JOB | data)),
        (ExperimentConfig, lambda data: ExperimentConfig(**EXPERIMENT | data)),
        (DeploymentConfig,
         lambda data: DeploymentConfig(**{"function": "sphere", "nodes": 4} | data)),
    ):
        for name, rule in shape.RULES.items():
            for value in pool(rule):
                yield shape, name, value, lambda b=build, d={name: value}: b(d)


def strict_json(shape, obj):
    data = obj.to_dict() if hasattr(obj, "to_dict") else asdict(obj)
    again = json.loads(json.dumps(data, allow_nan=False))
    return shape.from_dict(again) if hasattr(shape, "from_dict") else v.load(shape, again)


DRAWS = list(shape_draws())


@pytest.mark.parametrize("shape", sorted({d[0] for d in DRAWS}, key=str),
                         ids=lambda s: s.__name__)
def test_one_field_fails_by_its_path_or_round_trips(shape):
    wrong = []
    for drawn, path, value, build in DRAWS:
        if drawn is not shape:
            continue
        try:
            obj = build()
        except v.ScenarioValidationError as err:
            named = (path, COUPLED.get((shape.__name__, path)))
            if err.owner != shape.__name__ or err.field not in named:
                wrong.append(f"{path}={value!r}: {err}")
            continue
        again = strict_json(shape, obj)
        if again != obj:
            wrong.append(f"{path}={value!r}: round trip changed the value")
        if shape is Scenario and job_id(again) != job_id(obj):
            wrong.append(f"{path}={value!r}: job id moved")
        if shape is SweepJob and again.job_id != obj.job_id:
            wrong.append(f"{path}={value!r}: job id moved")
    assert not wrong, "\n".join(wrong)
