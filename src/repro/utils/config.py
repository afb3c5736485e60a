"""Validated configuration objects for protocols and experiments.

The paper's experiments are parameter sweeps over four knobs
(Sec. 4, "Simulation scenarios"):

* ``n`` — number of nodes,
* ``k`` — particles per node,
* ``e`` — total function evaluations (global budget),
* ``r`` — gossip cycle length, in local function evaluations.

:class:`ExperimentConfig` captures one point of such a sweep together
with the target function, repetition count and master seed.
Protocol-level parameters (NEWSCAST view size, transport loss rates,
churn rates) have their own dataclasses so subsystems validate what
they own.

All dataclasses are frozen: a config is a value, sweeps produce new
instances via :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.validate import (
    FRACTION, RATE, bundle, check, choice, count, flag, optional, real, text
)

__all__ = [
    "NewscastConfig",
    "PSOConfig",
    "CoordinationConfig",
    "ChurnConfig",
    "ExperimentConfig",
]


@dataclass(frozen=True)
class NewscastConfig:
    """Parameters of the NEWSCAST peer-sampling protocol.

    Attributes
    ----------
    view_size:
        ``c`` in the paper; number of node descriptors each node keeps.
        The paper reports ``c = 20`` is sufficient for "very stable and
        robust connectivity"; that is our default.

    A node initiates one view exchange per cycle, as PeerSim's
    cycle-driven NEWSCAST does.
    """

    view_size: int = 20

    RULES = {"view_size": count()}

    def __post_init__(self) -> None:
        check(self, self.RULES)


@dataclass(frozen=True)
class PSOConfig:
    """Parameters of the particle swarm optimizer (paper Sec. 2).

    Attributes
    ----------
    particles:
        ``k``: swarm size at one node.
    c1, c2:
        Cognitive / social learning factors.  The paper's background
        section quotes the textbook ``c1 = c2 = 2`` with unit inertia,
        but that configuration does not converge to the precisions the
        paper reports (it is well known to diverge without aggressive
        clamping).  The defaults here are Clerc's constriction
        coefficients (``χ = 0.7298`` folded into inertia,
        ``c = χ·2.05 = 1.49618``) — the standard PSO of the paper's
        era, which does reproduce the reported behaviour.  Set
        ``inertia=1.0, c1=c2=2.0`` to run the literal textbook variant
        (ablation).
    vmax_fraction:
        Per-dimension speed limit as a fraction of the domain width.
        ``None`` disables clamping.  The paper clamps to a user-chosen
        ``vmax_i``; a common convention (and our default) is the full
        domain width.
    inertia:
        Multiplier on the previous velocity (see ``c1``/``c2``).
    clamp_positions:
        Clip particle positions into the function's box after every
        move.  Off by default (the paper clamps velocity only).
    """

    particles: int = 16
    c1: float = 1.49618
    c2: float = 1.49618
    vmax_fraction: float | None = 1.0
    inertia: float = 0.7298
    clamp_positions: bool = False

    RULES = {"particles": count(), "c1": real(min=0), "c2": real(min=0),
             "vmax_fraction": optional(real(above=0)), "inertia": real(above=0),
             "clamp_positions": flag}

    def __post_init__(self) -> None:
        check(self, self.RULES)


@dataclass(frozen=True)
class CoordinationConfig:
    """Parameters of the anti-entropy optimum-diffusion service.

    Attributes
    ----------
    cycle_length:
        ``r``: local function evaluations between gossip exchanges.
    mode:
        ``"push-pull"`` (paper's algorithm: receiver replies when it
        holds the better optimum), ``"push"`` or ``"pull"`` for the
        ablation in A1.
    """

    cycle_length: int = 16
    mode: str = "push-pull"

    RULES = {"cycle_length": count(), "mode": choice("push", "pull", "push-pull")}

    def __post_init__(self) -> None:
        check(self, self.RULES)


@dataclass(frozen=True)
class ChurnConfig:
    """Synthetic churn process parameters (substitution for real traces).

    A node crash removes the node and its state; a join adds a fresh
    node with random particles, per paper Sec. 3.3.4.

    Attributes
    ----------
    crash_rate:
        Expected fraction of live nodes crashing per cycle.
    join_rate:
        Expected number of joins per cycle, as a fraction of the
        *initial* network size (keeps the process stationary).
    min_population:
        Churn never shrinks the network below this many nodes.
    """

    crash_rate: float = 0.0
    join_rate: float = 0.0
    min_population: int = 1

    RULES = {"crash_rate": FRACTION, "join_rate": RATE, "min_population": count()}

    def __post_init__(self) -> None:
        check(self, self.RULES)

    @property
    def enabled(self) -> bool:
        """Whether any churn is configured."""
        return self.crash_rate > 0 or self.join_rate > 0


@dataclass(frozen=True)
class ExperimentConfig:
    """One point of the paper's ``(n, k, e, r)`` parameter space.

    Attributes
    ----------
    function:
        Registry name of the benchmark function (see
        :mod:`repro.functions`).
    nodes:
        ``n``: network size.
    particles_per_node:
        ``k``: swarm size at each node.
    total_evaluations:
        ``e``: global budget, evenly divided across nodes.
    gossip_cycle:
        ``r``: local evaluations between coordination exchanges.
    repetitions:
        Number of independent runs (paper: 50).
    seed:
        Master seed; repetition ``i`` uses the derived stream
        ``("rep", i)``.
    quality_threshold:
        Optional early-stop threshold on global solution quality
        (used by experiment 4 with ``1e-10``).
    newscast / pso / coordination / churn:
        Subsystem parameter bundles.  ``pso.particles`` and
        ``coordination.cycle_length`` are overridden by
        ``particles_per_node`` / ``gossip_cycle`` during normalization
        — the scalar fields are the paper-facing API.
    """

    function: str
    nodes: int
    particles_per_node: int
    total_evaluations: int
    gossip_cycle: int
    repetitions: int = 1
    seed: int = 0
    quality_threshold: float | None = None
    newscast: NewscastConfig = field(default_factory=NewscastConfig)
    pso: PSOConfig = field(default_factory=PSOConfig)
    coordination: CoordinationConfig = field(default_factory=CoordinationConfig)
    churn: ChurnConfig = field(default_factory=ChurnConfig)

    RULES = {"function": text, "nodes": count(), "particles_per_node": count(),
             "total_evaluations": count(), "gossip_cycle": count(),
             "repetitions": count(), "seed": count(min=0),
             "quality_threshold": optional(real(above=0)),
             "newscast": bundle(NewscastConfig), "pso": bundle(PSOConfig),
             "coordination": bundle(CoordinationConfig), "churn": bundle(ChurnConfig)}

    def __post_init__(self) -> None:
        check(self, self.RULES)
        # Keep the nested bundles consistent with the scalar knobs.
        object.__setattr__(
            self, "pso", replace(self.pso, particles=self.particles_per_node)
        )
        object.__setattr__(
            self,
            "coordination",
            replace(self.coordination, cycle_length=self.gossip_cycle),
        )

    @property
    def evaluations_per_node(self) -> int:
        """Per-node share of the global budget (floor division).

        The paper distributes ``e`` "evenly among the particles"; with
        integer budgets the remainder (< ``nodes``) is dropped, which
        matches PeerSim cycle-granularity accounting.
        """
        return self.total_evaluations // self.nodes

    def with_(self, **changes) -> "ExperimentConfig":
        """Return a modified copy (sweep helper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary used in logs and reports."""
        return (
            f"{self.function}: n={self.nodes} k={self.particles_per_node} "
            f"e={self.total_evaluations} r={self.gossip_cycle} "
            f"reps={self.repetitions} seed={self.seed}"
        )
