"""The declarative scenario specification.

A :class:`Scenario` is one frozen, validated value describing a
complete run of the paper's system under *any* regime the library
supports: the cycle-driven reference simulation, the vectorized fast
path, the asynchronous event-driven deployment, and the baseline
comparisons — one spec, every frontend.

Design rules:

* **Declarative** — a scenario names *what* to run (network size,
  swarm shape, objective, topology model, churn, transport, engine,
  stop conditions, seed), never *how*; the
  :class:`~repro.scenario.session.Session` facade owns the how.
* **A value** — frozen; sweeps produce new instances via
  :meth:`Scenario.with_`.
* **JSON-safe** — :meth:`Scenario.to_dict` / :meth:`Scenario.from_dict`
  round-trip through plain dicts, and every validation error names the
  offending field by its dotted path (``Scenario.transport.loss_rate:
  ...``): one rule per field, from :mod:`repro.utils.validate`.

>>> s = Scenario(function="sphere", nodes=4, total_evaluations=400)
>>> Scenario.from_dict(s.to_dict()) == s
True
>>> s.with_(engine="fast").engine
'fast'
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

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
from repro.utils.validate import (
    FRACTION, JITTER, LATENCY, PERIOD, REMOVED, ScenarioValidationError,
    bundle, check, choice, count, flag, load, mapping, optional, real,
    require, sequence, text
)

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

    RULES = {"compute_period": PERIOD, "newscast_period": PERIOD,
             "gossip_period": PERIOD, "monitor_period": PERIOD,
             "latency_min": LATENCY, "latency_max": LATENCY,
             "loss_rate": FRACTION, "clock_jitter": JITTER}

    def __post_init__(self) -> None:
        check(self, self.RULES)
        require(self.latency_max >= self.latency_min, "latency_max",
                f"must be >= latency_min ({self.latency_min!r})", "TransportSpec")


@dataclass(frozen=True)
class Scenario:
    """One declarative run specification shared by every frontend.

    Which feature runs under which regime — and with which other
    feature — is one table, :mod:`repro.scenario.support` (README,
    "What runs where"); the attribute notes below do not restate it.

    Attributes
    ----------
    function:
        Registry name of the objective every node optimizes (required).
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
    solver / partitioned / objective_map:
        ``"pso"``, ``False`` and ``None``, the only values: every node
        runs the paper's PSO on the one ``function`` over the whole
        search space.  Any other value fails validation (the solver-mix,
        partitioned-search and per-node objective extensions were
        removed).
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

    RULES = {
        "function": text, "objective_map": optional(mapping),
        "nodes": count(), "particles_per_node": count(),
        "total_evaluations": count(), "gossip_cycle": count(),
        "repetitions": count(), "seed": count(min=0),
        "engine": choice(*ENGINES), "topology": choice(*TOPOLOGIES),
        "rng_mode": choice(*RNG_MODES), "kernel_backend": choice("numpy"),
        "solver": choice("pso"), "partitioned": flag,
        "baseline": optional(choice(*BASELINES)), "swarm_size": optional(count()),
        "synchronous": flag, "quality_threshold": optional(real(above=0)),
        "horizon": optional(real(above=0)),
        "event_backend": choice(*EVENT_BACKENDS),
        "event_window": optional(real(above=0)), "max_cycles": optional(count()),
        "record_history": flag,
        "churn": bundle(ChurnConfig), "transport": bundle(TransportSpec),
        "newscast": bundle(NewscastConfig), "pso": bundle(PSOConfig),
        "coordination": bundle(CoordinationConfig),
        "dynamics": bundle(DynamicsSpec), "adversary": bundle(AdversarySpec),
        "observers": sequence(),
    }

    # -- validation -----------------------------------------------------------

    def __post_init__(self) -> None:
        # The field table, then the checks that read two fields; which
        # feature runs under which regime is repro.scenario.support.
        from repro.scenario.support import check as check_support

        require(self.solver == "pso", "solver",
                f"must be 'pso', got {self.solver!r}: {REMOVED}")
        require(self.partitioned is False, "partitioned",
                f"must be False, got {self.partitioned!r}: {REMOVED}")
        require(self.objective_map is None, "objective_map",
                f"must be None, got {self.objective_map!r}: {REMOVED}")
        require(not callable(self.topology), "topology",
                f"a factory callable is not accepted: {REMOVED}")
        check(self, self.RULES)
        known = available_functions()
        require(self.function.lower() in known, "function",
                f"unknown function {self.function!r}; available: {known}")
        require(self.baseline is None or self.engine == "reference", "baseline",
                "baselines run on the reference engine")
        if self.baseline == "centralized" and self.synchronous:
            size = self.swarm_size or self.nodes * self.particles_per_node
            require(self.total_evaluations >= size, "total_evaluations",
                    f"e={self.total_evaluations} is less than one "
                    f"synchronous iteration of the {size}-particle swarm")
        if self.baseline != "centralized":
            # Every regime but the single big swarm splits the budget
            # evenly over the nodes (there, nodes only sizes the swarm).
            require(self.evaluations_per_node >= 1, "total_evaluations",
                    f"e={self.total_evaluations} gives node budget "
                    f"{self.evaluations_per_node} < 1 for n={self.nodes}")
        require(not self.adversary.enabled or self.nodes >= 2, "adversary",
                "a hostile overlay needs at least one honest node")
        if self.engine == "event":
            require(self.horizon is not None, "horizon",
                    "the event engine needs a positive time horizon")
        else:
            require(self.horizon is None, "horizon",
                    "only the event engine takes a time horizon")
        require(self.event_backend == "reference" or self.engine == "event",
                "event_backend", "an event backend needs engine='event'")
        check_support(self)
        # Keep the nested bundles consistent with the scalar knobs,
        # exactly like ExperimentConfig does.
        object.__setattr__(
            self, "pso", replace(self.pso, particles=self.particles_per_node)
        )
        object.__setattr__(
            self, "coordination",
            replace(self.coordination, cycle_length=self.gossip_cycle),
        )

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

    def to_experiment_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` view of this scenario.

        Lossy by design (engine, topology, transport and baseline knobs
        have no slot there); it is the argument the cycle engines
        (reference, fast, sharded) take.  Every field of it is a field
        of this scenario, under the same name.
        """
        return ExperimentConfig(
            **{name: getattr(self, name) for name in ExperimentConfig.RULES})

    def with_(self, **changes: Any) -> "Scenario":
        """Return a modified copy (sweep helper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary used in logs and reports."""
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
            f"{self.function}: n={self.nodes} k={self.particles_per_node} "
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
        from repro.scenario.support import check as check_support

        check_support(self, "jobs")
        out: dict[str, Any] = {}
        for name, rule in self.RULES.items():
            value = getattr(self, name)
            if name == "observers":
                continue
            if isinstance(rule, bundle):
                value = asdict(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output.

        Unknown keys — top-level or inside a nested bundle — raise a
        :class:`ScenarioValidationError` naming the offending field by
        its dotted path, so a typo in a JSON sweep file fails loudly
        instead of silently running defaults.
        """
        from repro.scenario.policy import EXECUTION_FIELDS

        for key in data:
            require(key not in EXECUTION_FIELDS, key,
                    "is an execution knob, not a scenario field — a "
                    "scenario says *what* to simulate; pass how-to-run "
                    "knobs via ExecutionPolicy (e.g. Session(s).run("
                    "policy=ExecutionPolicy(...)))")
        require("observers" not in data, "observers",
                "live observer objects are not serializable")
        return load(cls, data)
