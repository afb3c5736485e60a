"""The field-rule vocabulary: one rule per field of every value shape,
one error class, one message format."""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import fields

import numpy as np
import pytest

import repro.scenario
from repro.deployment.runtime import DeploymentConfig
from repro.distributed.jobs import SweepJob
from repro.functions.base import get_function
from repro.functions.problem import DriftingProblem, DynamicsSpec
from repro.scenario import (
    AdversarySpec,
    ExecutionPolicy,
    Scenario,
    ScenarioValidationError,
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
from repro.utils.exceptions import ConfigurationError

#: Every value a user, a sweep file or a spool file fills.
SHAPES = (Scenario, NewscastConfig, PSOConfig, CoordinationConfig,
          ChurnConfig, TransportSpec, DynamicsSpec, AdversarySpec,
          ExecutionPolicy, ExperimentConfig, DeploymentConfig, SweepJob)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.__name__)
def test_every_field_has_exactly_one_rule(shape):
    # Field order too: Scenario.to_dict writes its keys in table order.
    assert list(shape.RULES) == [f.name for f in fields(shape)]
    assert all(isinstance(rule, v.Rule) for rule in shape.RULES.values())


def job_payload(**changes) -> dict:
    return SweepJob(0, Scenario(function="sphere").to_dict(), (0,)).to_dict() | changes


@pytest.mark.parametrize("build,owner,path", [
    (lambda: TransportSpec(loss_rate="0.2"), "TransportSpec", "loss_rate"),
    (lambda: ChurnConfig(crash_rate="0.1"), "ChurnConfig", "crash_rate"),
    (lambda: NewscastConfig(view_size=4.5), "NewscastConfig", "view_size"),
    (lambda: DynamicsSpec(kind="drift", severity=math.inf), "DynamicsSpec",
     "severity"),
    (lambda: ExecutionPolicy(workers=2.5), "ExecutionPolicy", "workers"),
    (lambda: ExecutionPolicy(workers=True), "ExecutionPolicy", "workers"),
    (lambda: SweepJob.from_dict(job_payload(point_index=3.7)), "SweepJob",
     "point_index"),
    (lambda: SweepJob.from_dict(job_payload(repetitions=[1.9])), "SweepJob",
     "repetitions"),
    (lambda: Scenario.from_dict({"function": "sphere",
                                 "newscast": {"view_size": 4.5}}),
     "Scenario", "newscast.view_size"),
], ids=["loss-str", "crash-str", "view-float", "severity-inf", "workers-float",
        "workers-bool", "point-float", "reps-float", "nested-view-float"])
def test_probe_inputs_fail_by_dotted_path(build, owner, path):
    with pytest.raises(ScenarioValidationError) as err:
        build()
    assert err.value.field == path
    assert err.value.owner == owner
    assert str(err.value).startswith(f"{owner}.{path}: ")


def test_numpy_scalars_in_a_bundle_stored_as_python_values():
    s = Scenario(function="sphere", nodes=8,
                 newscast=NewscastConfig(view_size=np.int64(4)))
    json.dumps(s.to_dict(), allow_nan=False)
    assert type(s.newscast.view_size) is int
    s = Scenario(function="sphere", nodes=8, engine="event", horizon=5.0,
                 transport=TransportSpec(loss_rate=np.float32(0.25)),
                 adversary=AdversarySpec(defense=np.bool_(True)))
    json.dumps(s.to_dict(), allow_nan=False)
    assert type(s.transport.loss_rate) is float
    assert s.adversary.defense is True


def test_one_error_class_for_every_shape():
    assert ScenarioValidationError is v.ScenarioValidationError
    assert issubclass(ScenarioValidationError, ConfigurationError)
    assert issubclass(ScenarioValidationError, ValueError)
    assert not hasattr(repro.scenario, "ExecutionPolicyError")


def test_error_survives_a_process_boundary():
    err = ScenarioValidationError("transport.loss_rate", "must be >= 0", "Scenario")
    again = pickle.loads(pickle.dumps(err))
    assert (again.field, again.reason, again.owner, str(again)) == (
        err.field, err.reason, err.owner, str(err))


class TestRules:
    @pytest.mark.parametrize("value,stored", [
        (3, 3), (np.int64(3), 3), (np.uint8(3), 3)])
    def test_count_stores_int(self, value, stored):
        out = v.count()(value)
        assert out == stored and type(out) is int

    @pytest.mark.parametrize("value", [True, 3.0, 2.5, "3", None, math.nan])
    def test_count_rejects_non_integers(self, value):
        with pytest.raises(ScenarioValidationError, match="must be an integer"):
            v.count().apply(value, "n", "Owner")

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.int16(2)])
    def test_real_stores_float(self, value):
        assert type(v.real()(value)) is float

    def test_real_keeps_python_numbers(self):
        assert type(v.real()(3)) is int
        assert type(v.real()(0.5)) is float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       np.float64(math.inf), True, "1"])
    def test_real_rejects_non_finite_and_non_numbers(self, value):
        with pytest.raises(ScenarioValidationError, match="must be a finite number"):
            v.real().apply(value, "x", "Owner")

    @pytest.mark.parametrize("rule,ok,bad", [
        (v.PERIOD, [1e-9, 5], [0, -1]),
        (v.LATENCY, [0, 2.5], [-1e-9]),
        (v.FRACTION, [0, 0.999], [1, -0.1]),
        (v.JITTER, [0, 1], [1.01, -0.1]),
        (v.RATE, [0, 40], [-1]),
        (v.SEVERITY, [0.1], [0]),
    ])
    def test_named_ranges(self, rule, ok, bad):
        for value in ok:
            assert rule(value) == value
        for value in bad:
            with pytest.raises(ScenarioValidationError, match=f"must be {rule.range}"):
                rule.apply(value, "x", "Owner")

    def test_flag(self):
        assert v.flag(np.bool_(False)) is False
        with pytest.raises(ScenarioValidationError):
            v.flag.apply(1, "f", "Owner")

    def test_choice_stores_the_name(self):
        out = v.choice("a", "b")(np.str_("b"))
        assert out == "b" and type(out) is str
        with pytest.raises(ScenarioValidationError,
                           match=r"^Owner.c: must be one of \('a', 'b'\), got 'z'$"):
            v.choice("a", "b").apply("z", "c", "Owner")

    def test_optional_names_none_in_its_reason(self):
        rule = v.optional(v.count())
        assert rule(None) is None
        with pytest.raises(ScenarioValidationError,
                           match=r"^Owner.k: must be >= 1 or None, got 0$"):
            rule.apply(0, "k", "Owner")

    def test_sequence(self):
        rule = v.sequence(v.count(min=0), nonempty=True, distinct=True)
        assert rule([np.int64(2), 0]) == (2, 0)
        for bad in ([], [1, 1], [1.5], (True,), "0", 0):
            with pytest.raises(ScenarioValidationError):
                rule.apply(bad, "reps", "Owner")


class TestLoad:
    def test_unknown_nested_key_named_by_path(self):
        with pytest.raises(ScenarioValidationError) as err:
            v.load(ExperimentConfig, {"function": "sphere", "nodes": 4,
                                      "particles_per_node": 2,
                                      "total_evaluations": 8, "gossip_cycle": 2,
                                      "churn": {"crashrate": 0.1}})
        assert err.value.field == "churn.crashrate"
        assert str(err.value) == "ExperimentConfig.churn.crashrate: unknown field"

    def test_missing_required_field_named(self):
        payload = job_payload()
        del payload["scenario"]
        with pytest.raises(ScenarioValidationError,
                           match="^SweepJob.scenario: missing field$"):
            SweepJob.from_dict(payload)


class TestWrittenOnce:
    """A range two shapes carry is one rule object in both tables."""

    @pytest.mark.parametrize("name,rule", [
        ("compute_period", v.PERIOD), ("gossip_period", v.PERIOD),
        ("latency_min", v.LATENCY), ("latency_max", v.LATENCY),
        ("loss_rate", v.FRACTION), ("clock_jitter", v.JITTER),
    ])
    def test_transport_and_deployment(self, name, rule):
        assert TransportSpec.RULES[name] is DeploymentConfig.RULES[name] is rule

    def test_churn_and_deployment(self):
        assert ChurnConfig.RULES["join_rate"] is DeploymentConfig.RULES["join_rate"]
        assert DeploymentConfig.RULES["crash_rate"] is v.RATE

    @pytest.mark.parametrize("kwargs,field", [
        ({"severity": math.inf}, "severity"), ({"severity": 0}, "severity"),
        ({"period": -1.0}, "period"), ({"period": "2"}, "period")])
    def test_dynamics_spec_and_drifting_problem(self, kwargs, field):
        args = {"severity": 0.1, "period": 2.0} | kwargs
        with pytest.raises(ScenarioValidationError) as spec_err:
            DynamicsSpec(kind="drift", **args)
        with pytest.raises(ScenarioValidationError) as problem_err:
            DriftingProblem(get_function("sphere"), rng_for_epoch=np.random.default_rng,
                            **args)
        assert spec_err.value.field == problem_err.value.field == field
        assert spec_err.value.reason == problem_err.value.reason
