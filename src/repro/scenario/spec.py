"""The declarative scenario specification.

A :class:`Scenario` is one frozen, validated value describing a
complete run of the paper's system under *any* regime the library
supports: the cycle-driven reference simulation, the vectorized fast
path, the asynchronous event-driven deployment, and the baseline
comparisons — one spec, every frontend.

Design rules:

* **Declarative** — a scenario names *what* to run (network size,
  swarm shape, objective or per-node objective map, topology model,
  churn, transport, engine, stop conditions, seed), never *how*; the
  :class:`~repro.scenario.session.Session` facade owns the how.
* **A value** — frozen; sweeps produce new instances via
  :meth:`Scenario.with_`.
* **JSON-safe** — :meth:`Scenario.to_dict` / :meth:`Scenario.from_dict`
  round-trip through plain dicts, and every validation error names the
  offending field (``Scenario.engine: ...``).

>>> s = Scenario(function="sphere", nodes=4, total_evaluations=400)
>>> Scenario.from_dict(s.to_dict()) == s
True
>>> s.with_(engine="fast").engine
'fast'
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

import numpy as np

from repro.functions.base import available_functions
from repro.functions.problem import DynamicsSpec
from repro.simulator.adversary import AdversarySpec
from repro.utils.config import (
    ChurnConfig,
    CoordinationConfig,
    ExperimentConfig,
    NewscastConfig,
    PSOConfig,
)
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ENGINES",
    "EVENT_BACKENDS",
    "TOPOLOGIES",
    "RNG_MODES",
    "BASELINES",
    "Scenario",
    "TransportSpec",
    "DynamicsSpec",
    "AdversarySpec",
    "ScenarioValidationError",
]

#: Engines a scenario can run on.
ENGINES = ("reference", "fast", "event")
#: Execution backends of the ``event`` engine: the per-node
#: discrete-event runtime (the correctness oracle) or the
#: cohort-batched SoA kernel (see repro.core.eventpath).
EVENT_BACKENDS = ("reference", "fast")
#: Built-in topology models; "oracle" is the fast path's idealized
#: uniform sampler kept for kernel-vs-overlay ablations.
TOPOLOGIES = ("newscast", "cyclon", "ring", "kregular", "star", "oracle")
#: Per-particle RNG regimes of the fast engine (see repro.core.fastpath).
RNG_MODES = ("strict", "batched")
#: Baseline comparison modes (master–slave is ``topology="star"``).
BASELINES = ("centralized", "independent")


class ScenarioValidationError(ConfigurationError):
    """A scenario field failed validation.

    The message always starts with ``Scenario.<field>:`` so callers
    (and humans reading sweep logs) can see exactly which knob is
    wrong.  ``field`` carries the offending field name.
    """

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"Scenario.{field_name}: {message}")


def _require(field_name: str, condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioValidationError(field_name, message)


def _is_integer(value: Any) -> bool:
    """``int`` or a NumPy integer; ``bool`` is a flag, not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """A finite ``int`` / ``float`` or NumPy number, never a ``bool``."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


#: Count fields, stored as ``int``; the optional ones may be ``None``.
_INTEGER_FIELDS = ("nodes", "particles_per_node", "total_evaluations",
                   "gossip_cycle", "repetitions", "seed", "swarm_size",
                   "max_cycles")
_OPTIONAL = ("swarm_size", "max_cycles")
#: Real-valued fields, each ``None``-able.
_REAL_FIELDS = ("quality_threshold", "horizon", "event_window")
_BOOL_FIELDS = ("synchronous", "record_history")
#: Why ``solver`` / ``partitioned`` keep one legal value and
#: ``topology`` takes no callable.
_REMOVED = "the extension was removed; only the paper's stack runs"


@dataclass(frozen=True)
class TransportSpec:
    """Message transport and timer model of the asynchronous regime.

    Only the ``event`` engine reads these; the cycle-driven engines
    have no clocks or wires to parameterize.  Time is in abstract
    seconds; defaults mirror the paper's back-of-envelope (10 s
    protocol cycles, sub-second latency).
    """

    compute_period: float = 1.0
    newscast_period: float = 10.0
    gossip_period: float = 10.0
    monitor_period: float = 5.0
    latency_min: float = 0.05
    latency_max: float = 0.5
    loss_rate: float = 0.0
    clock_jitter: float = 0.1

    def __post_init__(self) -> None:
        for name in ("compute_period", "newscast_period", "gossip_period",
                     "monitor_period"):
            value = getattr(self, name)
            _require(f"transport.{name}", math.isfinite(value) and value > 0,
                     "must be positive and finite")
        _require("transport.latency_min",
                 0 <= self.latency_min <= self.latency_max,
                 "require 0 <= latency_min <= latency_max")
        _require("transport.latency_max", math.isfinite(self.latency_max),
                 "must be finite")
        _require("transport.loss_rate", 0.0 <= self.loss_rate < 1.0,
                 "must be in [0, 1)")
        _require("transport.clock_jitter", 0.0 <= self.clock_jitter <= 1.0,
                 "must be in [0, 1]")


#: The nested parameter bundles: field -> type (dicts in JSON).
_BUNDLES = {
    "churn": ChurnConfig,
    "transport": TransportSpec,
    "newscast": NewscastConfig,
    "pso": PSOConfig,
    "coordination": CoordinationConfig,
    "dynamics": DynamicsSpec,
    "adversary": AdversarySpec,
}


@dataclass(frozen=True)
class Scenario:
    """One declarative run specification shared by every frontend.

    Which feature runs under which regime — and with which other
    feature — is one table, :mod:`repro.scenario.support` (README,
    "What runs where"); the attribute notes below do not restate it.

    Attributes
    ----------
    function:
        Registry name of the shared objective.  Exactly one of
        ``function`` / ``objective_map`` must be set.
    objective_map:
        Per-node objective assignment ``{node_id: function_name}``
        covering every node — a *heterogeneous* network.  All mapped
        functions must share one dimensionality.  On the fast engine
        this routes through grouped batch evaluation (one batched
        objective call per function group per chunk).
    nodes / particles_per_node / total_evaluations / gossip_cycle:
        The paper's ``(n, k, e, r)`` knobs.
    repetitions / seed:
        Independent runs and the master seed; repetition ``i`` uses
        the seed-tree branch ``("rep", i)`` on every engine.
    engine:
        ``"reference"`` (full per-node protocol stack),
        ``"fast"`` (vectorized SoA kernel) or ``"event"``
        (asynchronous message-passing deployment).
    event_backend:
        How the ``event`` engine executes: ``"reference"`` (default —
        the per-node discrete-event :class:`AsyncRuntime`, every timer
        a heap event) or ``"fast"`` (the cohort-batched
        :class:`~repro.core.eventpath.CohortEventEngine`, which runs
        timer cohorts through the SoA kernels; statistically
        equivalent, much faster at scale, approximates sub-window
        event order and does not model message latency).
    event_window:
        Cohort window of the fast event backend, in simulated seconds
        (``None`` = half the fastest timer period).
    topology:
        ``"newscast"`` (default), ``"cyclon"`` (shuffle-based peer
        sampling), ``"ring"`` (radius-2 lattice), ``"kregular"``
        (frozen random overlay), ``"star"`` (master–slave), or
        ``"oracle"`` (the fast path's idealized uniform sampler).
    rng_mode:
        Per-particle draw regime of the SoA kernels — the fast engine
        and the fast event backend: ``"strict"`` (default;
        per-node streams, bit-compatible with the reference solver on
        the cycle engines) or ``"batched"`` (one seed-branched
        ``(n, 2, k, d)`` fill per chunk, statistically equivalent and
        faster).
    kernel_backend:
        The :mod:`repro.core.kernels` implementation of the fast
        engine's hot kernels: ``"numpy"``, the only value.
    solver / partitioned:
        ``"pso"`` and ``False``, the only values: every node runs the
        paper's PSO over the whole search space.  Any other value
        fails validation (the solver-mix and partitioned-search
        extensions were removed).
    baseline:
        ``"centralized"`` (one big swarm, same total budget) or
        ``"independent"`` (isolated multi-start, best-of-n); ``None``
        runs the actual distributed system.  The master–slave
        baseline is simply ``topology="star"``.
    swarm_size / synchronous:
        Centralized-baseline knobs: swarm size (default ``n·k``) and
        synchronous vs per-particle iteration.
    quality_threshold:
        Early stop when the global solution quality reaches this.
    horizon:
        Simulated-seconds cap; required by (and exclusive to) the
        ``event`` engine.
    max_cycles:
        Optional override of the cycle-driven safety cap.
    record_history:
        Keep per-cycle (or per-monitor-sample) quality trajectories.
    churn / transport / newscast / pso / coordination:
        Subsystem parameter bundles.  For the ``event`` engine the
        churn rates are events per simulated second (Poisson) rather
        than per-cycle fractions.
    dynamics:
        Time-varying landscape bundle
        (:class:`~repro.functions.problem.DynamicsSpec`): a drifting
        or shifting optimum with severity/period knobs.  ``period`` is
        in cycles on the cycle engines and simulated seconds on the
        event engines.  Default (``kind="none"``) is the static
        objective, bit-identical to scenarios predating this field.
    adversary:
        Hostile-overlay bundle
        (:class:`~repro.simulator.adversary.AdversarySpec`): a
        Byzantine fraction of nodes injecting false bests, corrupting
        positions or dropping gossip, plus the plausibility-filter
        defense toggle.  Default (``fraction=0``) is the honest
        network.
    observers:
        Extra engine observers, called once per cycle.  Not
        serializable — :meth:`to_dict` requires this empty.
    """

    function: str | None = None
    objective_map: Mapping[int, str] | None = None
    nodes: int = 16
    particles_per_node: int = 8
    total_evaluations: int = 16_000
    gossip_cycle: int = 8
    repetitions: int = 1
    seed: int = 0
    engine: str = "reference"
    topology: str = "newscast"
    rng_mode: str = "strict"
    kernel_backend: str = "numpy"
    solver: str = "pso"
    partitioned: bool = False
    baseline: str | None = None
    swarm_size: int | None = None
    synchronous: bool = True
    quality_threshold: float | None = None
    horizon: float | None = None
    event_backend: str = "reference"
    event_window: float | None = None
    max_cycles: int | None = None
    record_history: bool = False
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    transport: TransportSpec = field(default_factory=TransportSpec)
    newscast: NewscastConfig = field(default_factory=NewscastConfig)
    pso: PSOConfig = field(default_factory=PSOConfig)
    coordination: CoordinationConfig = field(default_factory=CoordinationConfig)
    dynamics: DynamicsSpec = field(default_factory=DynamicsSpec)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    observers: tuple = ()

    # -- validation -----------------------------------------------------------

    def __post_init__(self) -> None:
        # Per-field ranges and the selector consistency that derives
        # ``regime``; which feature runs under which regime is one
        # table, repro.scenario.support.
        from repro.scenario.support import check

        _require("solver", self.solver == "pso",
                 f"must be 'pso', got {self.solver!r}: {_REMOVED}")
        _require("partitioned", self.partitioned is False,
                 f"must be False, got {self.partitioned!r}: {_REMOVED}")
        _require("topology", not callable(self.topology),
                 f"a factory callable is not accepted: {_REMOVED}")
        self._normalize_types()
        _require("nodes", self.nodes >= 1, "must be >= 1")
        _require("particles_per_node", self.particles_per_node >= 1,
                 "must be >= 1")
        _require("total_evaluations", self.total_evaluations >= 1,
                 "must be >= 1")
        _require("gossip_cycle", self.gossip_cycle >= 1, "must be >= 1")
        _require("repetitions", self.repetitions >= 1, "must be >= 1")
        _require("seed", self.seed >= 0, "must be >= 0")
        _require("engine", self.engine in ENGINES,
                 f"must be one of {ENGINES}, got {self.engine!r}")
        self._validate_objective()
        _require("rng_mode", self.rng_mode in RNG_MODES,
                 f"must be one of {RNG_MODES}, got {self.rng_mode!r}")
        _require("kernel_backend", self.kernel_backend == "numpy",
                 f"must be 'numpy', got {self.kernel_backend!r}")
        _require("topology", self.topology in TOPOLOGIES,
                 f"must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.baseline is not None:
            _require("baseline", self.baseline in BASELINES,
                     f"must be one of {BASELINES} or None, got {self.baseline!r}")
            _require("baseline", self.engine == "reference",
                     "baselines run on the reference engine")
        if self.swarm_size is not None:
            _require("swarm_size", self.swarm_size >= 1, "must be >= 1")
        if self.baseline == "centralized" and self.synchronous:
            size = self.swarm_size or self.nodes * self.particles_per_node
            _require("total_evaluations", self.total_evaluations >= size,
                     f"e={self.total_evaluations} is less than one "
                     f"synchronous iteration of the {size}-particle swarm")
        if self.baseline != "centralized":
            # Every regime but the single big swarm splits the budget
            # evenly over the nodes (there, nodes only sizes the swarm).
            _require("total_evaluations",
                     self.evaluations_per_node >= 1,
                     f"e={self.total_evaluations} gives node budget "
                     f"{self.evaluations_per_node} < 1 for n={self.nodes}")
        if self.adversary.enabled:
            _require("adversary", self.nodes >= 2,
                     "a hostile overlay needs at least one honest node")
        if self.quality_threshold is not None:
            _require("quality_threshold", self.quality_threshold > 0,
                     "must be > 0 or None")
        if self.engine == "event":
            _require("horizon", self.horizon is not None and self.horizon > 0,
                     "the event engine needs a positive time horizon")
        else:
            _require("horizon", self.horizon is None,
                     "only the event engine takes a time horizon")
        _require("event_backend", self.event_backend in EVENT_BACKENDS,
                 f"must be one of {EVENT_BACKENDS}, got {self.event_backend!r}")
        if self.event_backend != "reference":
            _require("event_backend", self.engine == "event",
                     "an event backend needs engine='event'")
        if self.event_window is not None:
            _require("event_window",
                     math.isfinite(self.event_window) and self.event_window > 0,
                     "must be positive finite simulated seconds, or None")
        if self.max_cycles is not None:
            _require("max_cycles", self.max_cycles >= 1, "must be >= 1 or None")
        check(self)
        # Keep the nested bundles consistent with the scalar knobs,
        # exactly like ExperimentConfig does.
        object.__setattr__(
            self, "pso", replace(self.pso, particles=self.particles_per_node)
        )
        object.__setattr__(
            self, "coordination",
            replace(self.coordination, cycle_length=self.gossip_cycle),
        )
        if self.objective_map is not None:
            object.__setattr__(
                self, "objective_map",
                {int(k): str(v) for k, v in self.objective_map.items()},
            )

    def _normalize_types(self) -> None:
        """Reject wrong types by field name; store counts as ``int``,
        flags as ``bool`` and NumPy reals as ``float`` (JSON-safe)."""
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if type(value) is int or (value is None and name in _OPTIONAL):
                continue
            if not _is_integer(value):
                raise ScenarioValidationError(
                    name, f"must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value is None or type(value) in (int, float) and math.isfinite(value):
                continue
            if not _is_real(value):
                raise ScenarioValidationError(
                    name, f"must be a finite number or None, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ScenarioValidationError(
                    name, f"must be True or False, got {value!r}")
            object.__setattr__(self, name, bool(value))
        for name, kind in _BUNDLES.items():
            if not isinstance(getattr(self, name), kind):
                raise ScenarioValidationError(
                    name, f"must be a {kind.__name__}, "
                    f"got {getattr(self, name)!r}")

    def _validate_objective(self) -> None:
        known = available_functions()
        if self.objective_map is None:
            _require("function",
                     isinstance(self.function, str) and bool(self.function),
                     "a function name (or an objective_map) is required")
            _require("function", self.function.lower() in known,
                     f"unknown function {self.function!r}; available: {known}")
            return
        _require("function", self.function is None,
                 "give either function or objective_map, not both")
        _require("objective_map", isinstance(self.objective_map, Mapping),
                 "must map integer node ids to function names")
        _require("objective_map", all(map(_is_integer, self.objective_map)),
                 "node ids must be integers")
        ids = sorted(int(k) for k in self.objective_map)
        _require("objective_map", ids == list(range(self.nodes)),
                 f"must map every node id 0..{self.nodes - 1} exactly once")
        names = set(self.objective_map.values())
        for name in names:
            _require("objective_map",
                     isinstance(name, str) and name.lower() in known,
                     f"unknown function {name!r}; available: {known}")
        from repro.functions.base import get_function

        dims = {get_function(name).dimension for name in names}
        _require("objective_map", len(dims) == 1,
                 f"all objectives must share one dimension, got {sorted(dims)}")

    # -- derived views ---------------------------------------------------------

    @property
    def regime(self) -> str:
        """The execution path the selectors pick — a column of
        :mod:`repro.scenario.support`: ``reference`` | ``fast`` |
        ``event`` | ``event-fast`` | ``centralized`` | ``independent``."""
        if self.baseline is not None:
            return self.baseline
        if self.engine == "event" and self.event_backend == "fast":
            return "event-fast"
        return self.engine

    @property
    def evaluations_per_node(self) -> int:
        """Per-node share of the global budget (floor division)."""
        return self.total_evaluations // self.nodes

    def function_for(self, node_id: int) -> str:
        """Objective name for ``node_id``; joiners reuse ``id % nodes``."""
        if self.objective_map is None:
            return self.function  # type: ignore[return-value]
        if node_id in self.objective_map:
            return self.objective_map[node_id]
        return self.objective_map[node_id % self.nodes]

    def function_groups(self) -> list[tuple[str, list[int]]]:
        """Nodes grouped by objective, first-seen order.

        Homogeneous scenarios return one group; the fast engine issues
        one batched objective evaluation per returned group.
        """
        if self.objective_map is None:
            return [(self.function, list(range(self.nodes)))]  # type: ignore[list-item]
        groups: dict[str, list[int]] = {}
        for nid in range(self.nodes):
            groups.setdefault(self.objective_map[nid], []).append(nid)
        return list(groups.items())

    def primary_function(self) -> str:
        """Node 0's objective — the label tables and CSV rows carry."""
        return self.function_for(0)

    def to_experiment_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` view of this scenario.

        Lossy by design (engine, topology, objective map, transport and
        baseline knobs have no slot there); it is the argument the
        cycle engines (reference, fast, sharded) take.
        """
        return ExperimentConfig(
            function=self.primary_function(),
            nodes=self.nodes,
            particles_per_node=self.particles_per_node,
            total_evaluations=self.total_evaluations,
            gossip_cycle=self.gossip_cycle,
            repetitions=self.repetitions,
            seed=self.seed,
            quality_threshold=self.quality_threshold,
            newscast=self.newscast,
            pso=self.pso,
            coordination=self.coordination,
            churn=self.churn,
        )

    def with_(self, **changes: Any) -> "Scenario":
        """Return a modified copy (sweep helper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary used in logs and reports."""
        objective = (
            self.function
            if self.objective_map is None
            else "+".join(name for name, _ in self.function_groups())
        )
        extras = ""
        if self.baseline:
            extras = f" baseline={self.baseline}"
        elif self.topology != "newscast":
            extras = f" topology={self.topology}"
        if self.dynamics.enabled:
            extras += f" dynamics={self.dynamics.kind}"
        if self.adversary.enabled:
            extras += (
                f" adversary={self.adversary.behavior}"
                f"@{self.adversary.fraction:g}"
                f"{'+defense' if self.adversary.defense else ''}"
            )
        return (
            f"{objective}: n={self.nodes} k={self.particles_per_node} "
            f"e={self.total_evaluations} r={self.gossip_cycle} "
            f"reps={self.repetitions} seed={self.seed} "
            f"engine={self.engine}{extras}"
        )

    # -- JSON round-trip -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict representation (see :meth:`from_dict`).

        Raises :class:`ScenarioValidationError` naming the field when
        the scenario holds live observer objects — the ``jobs`` column
        of :mod:`repro.scenario.support`.
        """
        from repro.scenario.support import check

        check(self, "jobs")
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "observers":
                continue
            if f.name == "objective_map" and value is not None:
                value = {str(k): v for k, v in value.items()}
            elif f.name in _BUNDLES:
                value = asdict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output.

        Unknown keys — top-level or inside a nested bundle — raise a
        :class:`ScenarioValidationError` naming the offending field, so
        a typo in a JSON sweep file fails loudly instead of silently
        running defaults.
        """
        known = {f.name for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            if key not in known or key == "observers":
                from repro.scenario.policy import EXECUTION_FIELDS

                if key in EXECUTION_FIELDS:
                    raise ScenarioValidationError(
                        key,
                        "is an execution knob, not a scenario field — a "
                        "scenario says *what* to simulate; pass how-to-run "
                        "knobs via ExecutionPolicy (e.g. Session(s).run("
                        "policy=ExecutionPolicy(...)))",
                    )
                raise ScenarioValidationError(key, "unknown scenario field")
            if key in _BUNDLES and isinstance(value, Mapping):
                ctor = _BUNDLES[key]
                sub_known = {f.name for f in fields(ctor)}
                bad = set(value) - sub_known
                if bad:
                    raise ScenarioValidationError(
                        f"{key}.{sorted(bad)[0]}", "unknown scenario field")
                try:
                    value = ctor(**value)
                except ConfigurationError as exc:
                    raise ScenarioValidationError(key, str(exc)) from None
            elif key == "objective_map" and value is not None:
                try:
                    value = {int(k): str(v) for k, v in value.items()}
                except (TypeError, ValueError):
                    raise ScenarioValidationError(
                        "objective_map",
                        "must map integer node ids to function names",
                    ) from None
            kwargs[key] = value
        return cls(**kwargs)
