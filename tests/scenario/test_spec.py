"""Scenario validation and JSON round-trip contract."""

from __future__ import annotations

import importlib
import json
from dataclasses import fields

import numpy as np
import pytest

from repro.deployment.runtime import DeploymentConfig
from repro.functions.base import available_functions
from repro.scenario import (
    AdversarySpec,
    DynamicsSpec,
    Scenario,
    ScenarioValidationError,
    TransportSpec,
)
from repro.topology.static import ring_lattice
from repro.utils.config import ChurnConfig, ExperimentConfig, NewscastConfig, PSOConfig
from repro.utils.exceptions import ConfigurationError
from repro.utils.validate import load


def make(**overrides) -> Scenario:
    base = dict(
        function="sphere", nodes=8, particles_per_node=4,
        total_evaluations=800, gossip_cycle=4, repetitions=2, seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestValidation:
    def test_defaults_validate(self):
        s = Scenario(function="sphere")
        assert s.engine == "reference"
        assert s.evaluations_per_node == 1000

    @pytest.mark.parametrize("field,overrides", [
        pytest.param("function", {"function": None}, id="function-none"),
        pytest.param("nodes", {"nodes": 0}, id="nodes-zero"),
        pytest.param("particles_per_node", {"particles_per_node": 0},
                     id="particles_per_node-zero"),
        pytest.param("total_evaluations", {"total_evaluations": 0},
                     id="total_evaluations-zero"),
        # e < n: no node could spend one evaluation, on any engine.
        pytest.param("total_evaluations", {"total_evaluations": 4},
                     id="total_evaluations-below-nodes"),
        pytest.param("total_evaluations", {"total_evaluations": 4, "engine": "fast"},
                     id="total_evaluations-below-nodes-fast"),
        pytest.param("total_evaluations", {"total_evaluations": 4, "engine": "event",
                                           "horizon": 10.0},
                     id="total_evaluations-below-nodes-event"),
        pytest.param("total_evaluations", {"total_evaluations": 4, "engine": "event",
                                           "event_backend": "fast", "horizon": 10.0},
                     id="total_evaluations-below-nodes-event-fast"),
        pytest.param("total_evaluations", {"total_evaluations": 4,
                                           "baseline": "independent"},
                     id="total_evaluations-below-nodes-independent"),
        pytest.param("gossip_cycle", {"gossip_cycle": 0}, id="gossip_cycle-zero"),
        pytest.param("repetitions", {"repetitions": 0}, id="repetitions-zero"),
        pytest.param("seed", {"seed": -1}, id="seed-negative"),
        pytest.param("engine", {"engine": "warp"}, id="engine-unknown"),
        pytest.param("topology", {"topology": "torus"}, id="topology-unknown"),
        pytest.param("topology", {"topology": "star", "engine": "event",
                                  "horizon": 50.0}, id="topology-star-event"),
        pytest.param("topology", {"topology": "oracle"}, id="topology-oracle-reference"),
        pytest.param("rng_mode", {"rng_mode": "philox"}, id="rng_mode-unknown"),
        pytest.param("rng_mode", {"rng_mode": "batched"}, id="rng_mode-batched-reference"),
        pytest.param("baseline", {"baseline": "quantum"}, id="baseline-unknown"),
        pytest.param("baseline", {"baseline": "centralized", "engine": "fast"},
                     id="baseline-centralized-fast"),
        # A support-table cell blames the feature's own field.
        pytest.param("churn", {"baseline": "independent",
                               "churn": ChurnConfig(crash_rate=0.1)},
                     id="churn-independent"),
        pytest.param("topology", {"baseline": "centralized", "topology": "ring"},
                     id="topology-ring-centralized"),
        pytest.param("swarm_size", {"swarm_size": 9}, id="swarm_size-reference"),
        pytest.param("swarm_size", {"baseline": "centralized", "swarm_size": 0},
                     id="swarm_size-zero"),
        pytest.param("quality_threshold", {"quality_threshold": 0.0},
                     id="quality_threshold-zero"),
        pytest.param("quality_threshold", {"baseline": "centralized",
                                           "quality_threshold": 1e-6},
                     id="quality_threshold-centralized"),
        pytest.param("horizon", {"horizon": 100.0}, id="horizon-reference"),
        pytest.param("horizon", {"engine": "event"}, id="horizon-missing"),
        pytest.param("horizon", {"engine": "event", "horizon": 0.0}, id="horizon-zero"),
        pytest.param("horizon", {"engine": "event", "horizon": -5.0},
                     id="horizon-negative"),
        pytest.param("horizon", {"engine": "fast", "horizon": 100.0}, id="horizon-fast"),
        pytest.param("event_backend", {"event_backend": "warp"},
                     id="event_backend-unknown"),
        pytest.param("event_backend", {"event_backend": "fast"},
                     id="event_backend-fast-reference"),
        pytest.param("event_backend", {"event_backend": "fast", "engine": "fast"},
                     id="event_backend-fast-fast"),
        pytest.param("event_window", {"event_window": 0.5}, id="event_window-reference"),
        pytest.param("event_window", {"event_window": 0.5, "engine": "event",
                                      "horizon": 10.0}, id="event_window-event"),
        pytest.param("event_window", {"event_window": 0.0, "engine": "event",
                                      "event_backend": "fast", "horizon": 10.0},
                     id="event_window-zero"),
        pytest.param("event_window", {"event_window": -1.0, "engine": "event",
                                      "event_backend": "fast", "horizon": 10.0},
                     id="event_window-negative"),
        pytest.param("event_window", {"event_window": float("inf"), "engine": "event",
                                      "event_backend": "fast", "horizon": 10.0},
                     id="event_window-inf"),
        pytest.param("event_window", {"event_window": float("nan"), "engine": "event",
                                      "event_backend": "fast", "horizon": 10.0},
                     id="event_window-nan"),
        pytest.param("rng_mode", {"rng_mode": "batched", "engine": "event",
                                  "horizon": 10.0}, id="rng_mode-batched-event"),
        pytest.param("transport.latency_max",
                     {"engine": "event", "event_backend": "fast", "horizon": 10.0,
                      "transport": TransportSpec(latency_min=2.0, latency_max=8.0)},
                     id="latency_max-beyond-timer-event-fast"),
        pytest.param("max_cycles", {"max_cycles": 0}, id="max_cycles-zero"),
        pytest.param("max_cycles", {"max_cycles": 5, "engine": "event",
                                    "horizon": 10.0}, id="max_cycles-event"),
        # Non-finite clocks used to pass here and fail at run time
        # as DeploymentConfig.<field>.
        pytest.param("transport.compute_period",
                     {"transport": {"compute_period": float("inf")}},
                     id="compute_period-inf"),
        pytest.param("transport.monitor_period",
                     {"transport": {"monitor_period": float("inf")}},
                     id="monitor_period-inf"),
        pytest.param("transport.latency_max",
                     {"transport": {"latency_max": float("inf")}}, id="latency_max-inf"),
        # A knob every path but the event engines used to ignore
        # silently.
        pytest.param("transport", {"engine": "fast", "transport": {"loss_rate": 0.9}},
                     id="transport-loss-fast"),
        pytest.param("transport", {"transport": {"loss_rate": 0.9}},
                     id="transport-loss-reference"),
        # Wrong types used to construct and fail inside an engine
        # (the full type matrix is TestFieldTypes).
        pytest.param("seed", {"seed": 1.5}, id="seed-float"),
        pytest.param("churn", {"churn": 0.1}, id="churn-float"),
        # A synchronous swarm rounds e down to whole iterations: none.
        pytest.param("total_evaluations", {"baseline": "centralized",
                                           "total_evaluations": 31},
                     id="total_evaluations-centralized-no-iteration"),
    ])
    def test_errors_name_offending_field(self, field, overrides):
        with pytest.raises(ScenarioValidationError) as err:
            if isinstance(overrides.get("transport"), dict):
                # A bundle given as a dict is a sweep file's: from_dict
                # names its field by dotted path.
                Scenario.from_dict(make().to_dict() | overrides)
            else:
                make(**overrides)
        assert err.value.field.startswith(field)
        assert str(err.value).startswith(f"Scenario.{field}")

    def test_centralized_budget_is_not_split_over_nodes(self):
        s = make(baseline="centralized", total_evaluations=4,
                 synchronous=False)
        assert s.evaluations_per_node == 0  # nodes only sizes the swarm

    def test_validation_error_is_configuration_and_value_error(self):
        with pytest.raises(ConfigurationError):
            make(engine="warp")
        with pytest.raises(ValueError):
            make(engine="warp")

    def test_numpy_scalars_stored_as_python_values(self):
        s = make(nodes=np.int64(4), seed=np.uint32(3),
                 quality_threshold=np.float32(0.5),
                 record_history=np.bool_(True))
        assert (type(s.nodes), type(s.seed)) == (int, int)
        assert type(s.quality_threshold) is float
        assert s.record_history is True
        text = json.dumps(s.to_dict(), allow_nan=False)
        assert Scenario.from_dict(json.loads(text)) == s

    def test_transport_validation_names_field(self):
        with pytest.raises(ScenarioValidationError) as err:
            TransportSpec(loss_rate=1.5)
        assert err.value.field == "loss_rate"
        assert str(err.value) == ("TransportSpec.loss_rate: must be >= 0 "
                                  "and < 1, got 1.5")

    def test_nested_bundles_normalized(self):
        s = make(particles_per_node=6, gossip_cycle=3,
                 pso=PSOConfig(particles=99))
        assert s.pso.particles == 6
        assert s.coordination.cycle_length == 3

    def test_batched_draws_valid_on_fast_event_backend(self):
        s = make(engine="event", horizon=10.0, event_backend="fast",
                 rng_mode="batched")
        assert s.rng_mode == "batched"


#: A valid value of each count field, with the selectors that admit it.
COUNTS = {
    "nodes": (8, {}),
    "particles_per_node": (4, {}),
    "total_evaluations": (800, {}),
    "gossip_cycle": (4, {}),
    "repetitions": (2, {}),
    "seed": (7, {}),
    "swarm_size": (16, {"baseline": "centralized"}),
    "max_cycles": (5, {}),
}
#: The same for each real field.
REALS = {
    "quality_threshold": (1e-6, {}),
    "horizon": (10.0, {"engine": "event"}),
    "event_window": (0.5, {"engine": "event", "event_backend": "fast",
                           "horizon": 10.0}),
}
FLAGS = ("synchronous", "record_history")
SELECTORS = ("engine", "topology", "rng_mode", "kernel_backend",
             "event_backend", "baseline")


def named(field_name, **overrides):
    """The validation error of ``make(**overrides)``; it must name
    ``field_name``."""
    with pytest.raises(ScenarioValidationError) as err:
        make(**overrides)
    assert err.value.field == field_name
    return err.value


def strict_round_trip(s: Scenario) -> Scenario:
    return Scenario.from_dict(json.loads(json.dumps(s.to_dict(),
                                                    allow_nan=False)))


class TestFieldTypes:
    """Every field rejects a wrong type by name at construction; the
    NumPy spelling of a right one is stored as the Python value."""

    @pytest.mark.parametrize("name", COUNTS)
    @pytest.mark.parametrize("bad", [True, 4.0, "4", np.float64(4.0)],
                             ids=["bool", "float", "str", "np-float"])
    def test_count_rejects_non_integer(self, name, bad):
        _, context = COUNTS[name]
        named(name, **context, **{name: bad})

    @pytest.mark.parametrize(
        "name", [n for n in COUNTS if n not in ("swarm_size", "max_cycles")])
    def test_required_count_rejects_none(self, name):
        named(name, **{name: None})

    @pytest.mark.parametrize("name", COUNTS)
    @pytest.mark.parametrize("kind", [np.int64, np.uint16])
    def test_count_takes_numpy_integer(self, name, kind):
        value, context = COUNTS[name]
        s = make(**context, **{name: kind(value)})
        assert type(getattr(s, name)) is int
        assert getattr(s, name) == value
        assert strict_round_trip(s) == s

    @pytest.mark.parametrize("name", REALS)
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), "1.0", True],
        ids=["nan", "inf", "-inf", "str", "bool"])
    def test_real_rejects_non_finite_or_non_number(self, name, bad):
        _, context = REALS[name]
        named(name, **context, **{name: bad})

    @pytest.mark.parametrize("name", REALS)
    @pytest.mark.parametrize("kind", [np.float32, np.float64])
    def test_real_takes_numpy_float(self, name, kind):
        value, context = REALS[name]
        s = make(**context, **{name: kind(value)})
        assert type(getattr(s, name)) is float
        assert getattr(s, name) == float(kind(value))
        assert strict_round_trip(s) == s

    @pytest.mark.parametrize("name", FLAGS)
    @pytest.mark.parametrize("bad", [1, 0, "yes", None])
    def test_flag_rejects_non_bool(self, name, bad):
        named(name, **{name: bad})

    @pytest.mark.parametrize("name", FLAGS)
    def test_flag_takes_numpy_bool(self, name):
        s = make(**{name: np.bool_(False)})
        assert getattr(s, name) is False
        assert strict_round_trip(s) == s

    @pytest.mark.parametrize("name", SELECTORS)
    @pytest.mark.parametrize("bad", [1, ["fast"]], ids=["int", "list"])
    def test_selector_rejects_non_name(self, name, bad):
        named(name, **{name: bad})

    @pytest.mark.parametrize("name", [
        "churn", "transport", "newscast", "pso", "coordination", "dynamics",
        "adversary"])
    def test_bundle_must_be_its_dataclass(self, name):
        err = named(name, **{name: {}})
        assert "must be a" in str(err)

    @pytest.mark.parametrize("name", available_functions())
    def test_every_registered_function_is_accepted(self, name):
        assert make(function=name).function == name

    @pytest.mark.parametrize("bad", ["nope", "sphere ", "sphere2", ""])
    def test_unknown_function_named(self, bad):
        named("function", function=bad)


#: The keys of the removed extensions with values a sweep or spool file
#: written by older code spells: the one value older code accepted, then
#: values it rejected.
REMOVED_KEYS = [
    pytest.param("solver", "pso", id="solver-pso"),
    pytest.param("solver", "de", id="solver-de"),
    pytest.param("solver", ["de"], id="solver-de-list"),
    pytest.param("solver", ["pso"], id="solver-pso-list"),
    pytest.param("solver", ["pso", "de"], id="solver-mix"),
    pytest.param("partitioned", False, id="partitioned-false"),
    pytest.param("partitioned", True, id="partitioned-true"),
    pytest.param("objective_map", None, id="objective_map-none"),
    pytest.param("objective_map", {"0": "sphere"}, id="objective_map-map"),
    pytest.param("objective_map", {str(i): "sphere" for i in range(8)},
                 id="objective_map-full-map"),
    pytest.param("observers", [], id="observers-empty"),
    pytest.param("observers", ["spy"], id="observers-one"),
]

#: The same fields as Python callers passed them.
REMOVED_ARGUMENTS = [
    pytest.param("solver", "pso", id="solver-pso"),
    pytest.param("solver", "de", id="solver-de"),
    pytest.param("solver", "random", id="solver-random"),
    pytest.param("solver", ("pso", "de"), id="solver-mix"),
    pytest.param("solver", ["pso"], id="solver-pso-list"),
    pytest.param("partitioned", False, id="partitioned-false"),
    pytest.param("partitioned", True, id="partitioned-true"),
    pytest.param("partitioned", 1, id="partitioned-one"),
    pytest.param("partitioned", np.bool_(False), id="partitioned-np-false"),
    pytest.param("objective_map", None, id="objective_map-none"),
    pytest.param("objective_map", {i: "sphere" for i in range(8)},
                 id="objective_map-map"),
    pytest.param("objective_map", {}, id="objective_map-empty-map"),
    pytest.param("observers", (), id="observers-empty"),
    pytest.param("observers", (object(),), id="observers-one"),
]


class TestRemovedFields:
    """The solver mix, partitioned search, the per-node objective map,
    live observers and multi-exchange NEWSCAST were removed, fields and
    all: an old key fails by its dotted path, with no alias and no
    silent drop — even at the value that used to be the only legal one."""

    @pytest.mark.parametrize("key,value", REMOVED_KEYS)
    def test_from_dict_names_the_key(self, key, value):
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(make().to_dict() | {key: value})
        assert err.value.field == key
        assert str(err.value) == f"Scenario.{key}: unknown field"

    @pytest.mark.parametrize("key,value", REMOVED_ARGUMENTS)
    def test_constructor_raises_type_error(self, key, value):
        with pytest.raises(TypeError, match=f"'{key}'"):
            make(**{key: value})

    def test_objective_map_in_place_of_function_is_a_type_error(self):
        with pytest.raises(TypeError, match="'objective_map'"):
            Scenario(function=None, objective_map={0: "sphere"}, nodes=1)

    @pytest.mark.parametrize("owner,build", [
        ("Scenario",
         lambda newscast: Scenario.from_dict(make().to_dict() | {"newscast": newscast})),
        ("ExperimentConfig",
         lambda newscast: load(ExperimentConfig, vars(make().to_experiment_config())
                               | {"newscast": newscast})),
        ("DeploymentConfig",
         lambda newscast: load(DeploymentConfig, {"function": "sphere", "nodes": 4,
                                                  "newscast": newscast})),
        ("NewscastConfig",
         lambda newscast: load(NewscastConfig, newscast)),
    ], ids=["scenario", "experiment-config", "deployment-config", "newscast-config"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_exchange_per_cycle_names_its_path(self, owner, build, count):
        with pytest.raises(ScenarioValidationError) as err:
            build({"view_size": 20, "exchange_per_cycle": count})
        path = ("exchange_per_cycle" if owner == "NewscastConfig"
                else "newscast.exchange_per_cycle")
        assert (err.value.owner, err.value.field) == (owner, path)
        assert str(err.value) == f"{owner}.{path}: unknown field"

    @pytest.mark.parametrize("count", [0, -1, 5, None, "1", True, 1.0],
                             ids=["zero", "negative", "five", "none", "str-one",
                                  "bool", "float"])
    def test_every_exchange_count_is_an_unknown_field(self, count):
        """The key fails before its value is read: no count, of any
        type, reaches a rule."""
        data = make().to_dict()
        data["newscast"]["exchange_per_cycle"] = count
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert str(err.value) == "Scenario.newscast.exchange_per_cycle: unknown field"

    def test_newscast_config_is_the_view_size(self):
        assert [f.name for f in fields(NewscastConfig)] == ["view_size"]
        with pytest.raises(TypeError):
            NewscastConfig(exchange_per_cycle=1)

    @pytest.mark.parametrize("topology", [ring_lattice, lambda node_id: None],
                             ids=["function", "lambda"])
    def test_callable_topology_fails_the_choice_rule(self, topology):
        err = named("topology", topology=topology)
        assert str(err).startswith("Scenario.topology: must be one of (")

    @pytest.mark.parametrize("module", [
        "repro.aggregation", "repro.core.solvers", "repro.core.partitioning",
        "repro.functions.subdomain"])
    def test_module_is_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)


class TestDerivedViews:
    def test_to_experiment_config_round(self):
        s = make(quality_threshold=1e-6)
        cfg = s.to_experiment_config()
        assert cfg.function == "sphere"
        assert cfg.nodes == 8
        assert cfg.quality_threshold == 1e-6
        # Every shared knob survives: same field names, so the config's
        # fields rebuild the scenario.
        assert Scenario(**vars(cfg)) == s

    def test_with_returns_new_validated_value(self):
        s = make()
        fast = s.with_(engine="fast")
        assert fast.engine == "fast"
        assert s.engine == "reference"
        with pytest.raises(ScenarioValidationError):
            s.with_(engine="warp")

    def test_describe_mentions_engine(self):
        assert "engine=fast" in make(engine="fast").describe()

    def test_describe_names_the_problem_layer(self):
        """Sweep progress lines are ``describe()``: cells that differ only
        in dynamics / adversary (exp6) must not read identically."""
        plain = make().describe()
        assert "dynamics" not in plain and "adversary" not in plain
        hostile = make(
            dynamics=DynamicsSpec(kind="drift"),
            adversary=AdversarySpec(fraction=0.25, defense=True),
        ).describe()
        assert hostile.startswith(plain)
        assert hostile.endswith("dynamics=drift adversary=false-best@0.25+defense")


class TestRoundTrip:
    def test_round_trip_identity(self):
        s = make(engine="fast", quality_threshold=1e-8,
                 churn=ChurnConfig(crash_rate=0.01, join_rate=0.01))
        assert Scenario.from_dict(s.to_dict()) == s

    def test_round_trip_through_json_text(self):
        s = make(function="levy")
        blob = json.dumps(s.to_dict())
        assert Scenario.from_dict(json.loads(blob)) == s

    def test_round_trip_event_engine(self):
        s = make(engine="event", horizon=500.0,
                 transport=TransportSpec(loss_rate=0.2, gossip_period=2.0))
        assert Scenario.from_dict(s.to_dict()) == s

    def test_round_trip_event_fast_backend(self):
        s = make(engine="event", horizon=500.0, event_backend="fast",
                 event_window=0.25)
        assert Scenario.from_dict(s.to_dict()) == s

    def test_pre_event_backend_dicts_still_load(self):
        # Serialized by code that predates the cohort backend.
        data = make(engine="event", horizon=500.0).to_dict()
        del data["event_backend"]
        del data["event_window"]
        s = Scenario.from_dict(data)
        assert s.event_backend == "reference"
        assert s.event_window is None

    @pytest.mark.parametrize("overrides", [
        {}, {"engine": "fast", "topology": "oracle", "rng_mode": "batched"},
        {"engine": "event", "event_backend": "fast", "horizon": 5.0,
         "event_window": 0.5, "transport": TransportSpec(loss_rate=0.2)},
        {"engine": "event", "horizon": 5.0,
         "transport": TransportSpec(latency_min=0.1, latency_max=0.2)},
        {"baseline": "centralized", "swarm_size": 6},
        {"baseline": "independent"},
        {"engine": "fast", "churn": ChurnConfig(crash_rate=0.1, join_rate=0.1),
         "dynamics": DynamicsSpec(kind="shift", period=2.0),
         "adversary": AdversarySpec(fraction=0.25)},
    ], ids=["reference", "fast", "event-fast", "event", "centralized",
            "independent", "churn-dynamic-hostile"])
    def test_to_dict_never_raises(self, overrides):
        """Every field is a plain value: whatever constructs serializes,
        and the dict holds exactly the field table's keys."""
        s = make(**overrides)
        d = s.to_dict()
        assert list(d) == list(Scenario.RULES) == [f.name for f in fields(Scenario)]
        assert strict_round_trip(s) == s

    def test_unknown_key_named(self):
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict({"function": "sphere", "gossip_cycel": 8})
        assert err.value.field == "gossip_cycel"

    def test_unknown_nested_key_named(self):
        data = make().to_dict()
        data["churn"]["crashrate"] = 0.5
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert "churn.crashrate" in str(err.value)

    @pytest.mark.parametrize("path,value,reason", [
        ("transport.loss_rate", 1.5, "must be >= 0 and < 1, got 1.5"),
        ("churn.crash_rate", 2.0, "must be >= 0 and < 1, got 2.0"),
        ("dynamics.severity", float("inf"), "must be a finite number, got inf"),
        ("adversary.fraction", "0.2", "must be a finite number, got '0.2'"),
    ])
    def test_invalid_nested_value_named_by_path(self, path, value, reason):
        bundle, name = path.split(".")
        data = make().to_dict()
        data[bundle][name] = value
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert err.value.field == path
        assert str(err.value) == f"Scenario.{path}: {reason}"
