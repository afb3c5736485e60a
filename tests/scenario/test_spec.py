"""Scenario validation and JSON round-trip contract."""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from repro.deployment.runtime import DeploymentConfig
from repro.functions.base import available_functions
from repro.scenario import (
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

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("function", {"function": None}),
            ("nodes", {"nodes": 0}),
            ("particles_per_node", {"particles_per_node": 0}),
            ("total_evaluations", {"total_evaluations": 0}),
            # e < n: no node could spend one evaluation, on any engine.
            ("total_evaluations", {"total_evaluations": 4}),
            ("total_evaluations", {"total_evaluations": 4, "engine": "fast"}),
            ("total_evaluations", {"total_evaluations": 4, "engine": "event",
                                   "horizon": 10.0}),
            ("total_evaluations", {"total_evaluations": 4, "engine": "event",
                                   "event_backend": "fast", "horizon": 10.0}),
            ("total_evaluations", {"total_evaluations": 4,
                                   "baseline": "independent"}),
            ("gossip_cycle", {"gossip_cycle": 0}),
            ("repetitions", {"repetitions": 0}),
            ("seed", {"seed": -1}),
            ("engine", {"engine": "warp"}),
            ("topology", {"topology": "torus"}),
            ("topology", {"topology": "star", "engine": "event",
                          "horizon": 50.0}),
            ("topology", {"topology": "oracle"}),
            ("rng_mode", {"rng_mode": "philox"}),
            ("rng_mode", {"rng_mode": "batched"}),
            ("solver", {"solver": "annealing"}),
            ("solver", {"solver": ()}),
            ("solver", {"solver": "de", "engine": "fast"}),
            ("solver", {"solver": ("pso",)}),
            ("partitioned", {"partitioned": True, "engine": "fast"}),
            ("baseline", {"baseline": "quantum"}),
            ("baseline", {"baseline": "centralized", "engine": "fast"}),
            # A support-table cell blames the feature's own field.
            ("churn", {"baseline": "independent",
                       "churn": ChurnConfig(crash_rate=0.1)}),
            ("topology", {"baseline": "centralized", "topology": "ring"}),
            ("swarm_size", {"swarm_size": 9}),
            ("swarm_size", {"baseline": "centralized", "swarm_size": 0}),
            ("quality_threshold", {"quality_threshold": 0.0}),
            ("quality_threshold", {"baseline": "centralized",
                                   "quality_threshold": 1e-6}),
            ("horizon", {"horizon": 100.0}),
            ("horizon", {"engine": "event"}),
            ("horizon", {"engine": "event", "horizon": 0.0}),
            ("horizon", {"engine": "event", "horizon": -5.0}),
            ("horizon", {"engine": "fast", "horizon": 100.0}),
            ("event_backend", {"event_backend": "warp"}),
            ("event_backend", {"event_backend": "fast"}),
            ("event_backend", {"event_backend": "fast", "engine": "fast"}),
            ("event_window", {"event_window": 0.5}),
            ("event_window", {"event_window": 0.5, "engine": "event",
                              "horizon": 10.0}),
            ("event_window", {"event_window": 0.0, "engine": "event",
                              "event_backend": "fast", "horizon": 10.0}),
            ("event_window", {"event_window": -1.0, "engine": "event",
                              "event_backend": "fast", "horizon": 10.0}),
            ("event_window", {"event_window": float("inf"), "engine": "event",
                              "event_backend": "fast", "horizon": 10.0}),
            ("event_window", {"event_window": float("nan"), "engine": "event",
                              "event_backend": "fast", "horizon": 10.0}),
            ("rng_mode", {"rng_mode": "batched", "engine": "event",
                          "horizon": 10.0}),
            ("transport.latency_max",
             {"engine": "event", "event_backend": "fast", "horizon": 10.0,
              "transport": TransportSpec(latency_min=2.0, latency_max=8.0)}),
            ("max_cycles", {"max_cycles": 0}),
            ("max_cycles", {"max_cycles": 5, "engine": "event",
                            "horizon": 10.0}),
            # Non-finite clocks used to pass here and fail at run time
            # as DeploymentConfig.<field>.
            ("transport.compute_period",
             {"transport": {"compute_period": float("inf")}}),
            ("transport.monitor_period",
             {"transport": {"monitor_period": float("inf")}}),
            ("transport.latency_max",
             {"transport": {"latency_max": float("inf")}}),
            # A knob every path but the event engines used to ignore
            # silently.
            ("transport", {"engine": "fast",
                           "transport": {"loss_rate": 0.9}}),
            ("transport", {"transport": {"loss_rate": 0.9}}),
            # Wrong types used to construct and fail inside an engine
            # (the full type matrix is TestFieldTypes).
            ("seed", {"seed": 1.5}),
            ("churn", {"churn": 0.1}),
            # A synchronous swarm rounds e down to whole iterations: none.
            ("total_evaluations", {"baseline": "centralized",
                                   "total_evaluations": 31}),
        ],
    )
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

    @pytest.mark.parametrize("objective_map", [
        {**{i: "sphere" for i in range(7)}, 7: 3},
        {**{i: "sphere" for i in range(7)}, 7.0: "sphere"},
        {**{i: "sphere" for i in range(1, 8)}, False: "sphere"},
    ], ids=["non-str-name", "float-id", "bool-id"])
    def test_objective_map_rejects_wrong_types(self, objective_map):
        """A malformed map fails as the removed extension, by name,
        before any check of its keys or values."""
        err = named("objective_map", function=None, objective_map=objective_map)
        assert "extension was removed" in str(err)


#: A NEWSCAST bundle as a sweep or spool file spells it, two exchanges
#: per cycle.
MULTI_EXCHANGE = {"view_size": 20, "exchange_per_cycle": 2}


class TestRemovedExtensions:
    """The solver mix, partitioned search, callable topologies, the
    per-node objective map and multi-exchange NEWSCAST were removed:
    each value of theirs fails by name, with no alias."""

    @pytest.mark.parametrize("name,value", [
        ("solver", "de"),
        ("solver", "random"),
        ("solver", ("pso", "de")),
        ("solver", ["pso"]),
        ("partitioned", True),
        ("partitioned", 1),
        ("partitioned", np.bool_(False)),
        ("topology", ring_lattice),
        ("topology", lambda node_id: None),
        ("objective_map", {i: "sphere" for i in range(8)}),
        ("objective_map", {}),
    ], ids=["de", "random", "mix", "pso-list", "true", "one", "np-false",
            "function", "lambda", "map", "empty-map"])
    def test_constructor_names_the_field(self, name, value):
        err = named(name, **{name: value})
        assert "extension was removed" in str(err)

    def test_objective_map_in_place_of_function_names_the_map(self):
        with pytest.raises(ScenarioValidationError) as err:
            Scenario(function=None, objective_map={0: "sphere"}, nodes=1)
        assert err.value.field == "objective_map"
        assert "extension was removed" in str(err.value)

    @pytest.mark.parametrize("name,value", [
        ("solver", "de"),
        ("solver", ["de"]),
        ("solver", ["pso"]),
        ("solver", ["pso", "de"]),
        ("partitioned", True),
        ("objective_map", {"0": "sphere"}),
        ("objective_map", {str(i): "sphere" for i in range(8)}),
    ], ids=["de", "de-list", "pso-list", "mix", "true", "map", "full-map"])
    def test_from_dict_names_the_field(self, name, value):
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(make().to_dict() | {name: value})
        assert err.value.field == name
        assert "extension was removed" in str(err.value)

    @pytest.mark.parametrize("value", [0, -1, 5, np.int64(2), None, "1"],
                             ids=["zero", "negative", "five", "np-two", "none",
                                  "str-one"])
    def test_every_other_exchange_count_is_removed(self, value):
        with pytest.raises(ScenarioValidationError) as err:
            NewscastConfig(exchange_per_cycle=value)
        assert err.value.field == "exchange_per_cycle"
        assert "extension was removed" in str(err.value)

    @pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
    def test_one_of_the_wrong_type_is_a_type_error(self, value):
        """``True == 1.0 == 1``, so these pass the one-value check and
        fall to the field rule, which still wants an integer."""
        with pytest.raises(ScenarioValidationError) as err:
            NewscastConfig(exchange_per_cycle=value)
        assert err.value.field == "exchange_per_cycle"
        assert "must be an integer" in str(err.value)

    def test_numpy_one_is_stored_as_int(self):
        value = NewscastConfig(exchange_per_cycle=np.int64(1)).exchange_per_cycle
        assert value == 1 and type(value) is int

    @pytest.mark.parametrize("owner,field,build", [
        ("NewscastConfig", "exchange_per_cycle",
         lambda: NewscastConfig(exchange_per_cycle=2)),
        ("Scenario", "newscast.exchange_per_cycle",
         lambda: Scenario.from_dict(make().to_dict() | {"newscast": MULTI_EXCHANGE})),
        ("ExperimentConfig", "newscast.exchange_per_cycle",
         lambda: load(ExperimentConfig, vars(make().to_experiment_config())
                      | {"newscast": MULTI_EXCHANGE})),
        ("DeploymentConfig", "newscast.exchange_per_cycle",
         lambda: load(DeploymentConfig, {"function": "sphere", "nodes": 4,
                                         "newscast": MULTI_EXCHANGE})),
    ], ids=["direct", "scenario", "experiment-config", "deployment-config"])
    def test_exchange_per_cycle_names_the_field(self, owner, field, build):
        with pytest.raises(ScenarioValidationError) as err:
            build()
        assert (err.value.owner, err.value.field) == (owner, field)
        assert "extension was removed" in str(err.value)

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
        from repro.scenario import AdversarySpec, DynamicsSpec

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
        s = make(function="levy", solver="pso", partitioned=False)
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

    def test_one_value_fields_stay_in_the_dict(self):
        d = make().to_dict()
        assert (d["solver"], d["partitioned"], d["objective_map"]) == ("pso", False, None)
        assert d["newscast"]["exchange_per_cycle"] == 1

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

    def test_observers_not_serializable(self):
        s = make(observers=(object(),))
        with pytest.raises(ScenarioValidationError) as err:
            s.to_dict()
        assert err.value.field == "observers"
