"""The asynchronous deployment runtime.

Builds the full three-service stack on an event-driven engine and
gives every node its own clocks:

* a **compute timer** — every ``compute_period`` (± jitter) the node
  spends ``evals_per_tick`` function evaluations of its budget;
* a **peer-sampling timer** — every ``newscast_period`` the node
  initiates a NEWSCAST shuffle (the paper envisions 10–60 s);
* a **gossip timer** — every ``gossip_period`` the node initiates one
  anti-entropy optimum exchange.

Messages travel over a uniform-latency transport with optional loss.
Timer phases are randomized per node, so nothing in the system is
synchronized — the regime the paper's architecture targets but never
simulates.  Optional Poisson churn crashes and joins nodes as
scheduled events.

A periodic monitor samples the oracle global best for the quality
trajectory and enforces threshold/budget stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.dpso import PSOStepProtocol
from repro.core.metrics import (
    DynamicsTracker,
    MessageTally,
    global_best,
    network_true_error,
    problem_layer_metrics,
    total_evaluations,
)
from repro.core.node import OptimizationNodeSpec, build_optimization_node
from repro.core.runner import all_budgets_exhausted, bind_problem_layer
from repro.deployment.newscast_ed import EventNewscastProtocol
from repro.functions.base import get_function
from repro.simulator.engine import EventDrivenEngine
from repro.simulator.network import Network, Node
from repro.simulator.transport import LossyTransport, UniformLatencyTransport
from repro.topology.newscast import bootstrap_views
from repro.utils.config import CoordinationConfig, NewscastConfig, PSOConfig
from repro.utils.rng import SeedSequenceTree
from repro.utils.validate import (
    FRACTION, JITTER, LATENCY, PERIOD, RATE, bundle, check, count, optional,
    real, require, text
)

__all__ = [
    "DeploymentConfig",
    "DeploymentResult",
    "AsyncRuntime",
]


@dataclass(frozen=True)
class DeploymentConfig:
    """Parameters of one asynchronous deployment.

    Time is in abstract seconds; defaults model the paper's
    back-of-envelope (10 s protocol cycles) with computation much
    faster than communication.
    """

    function: str
    nodes: int
    particles_per_node: int = 8
    budget_per_node: int = 1000
    #: evaluations performed per compute tick (the async analogue of r).
    evals_per_tick: int = 8
    compute_period: float = 1.0
    newscast_period: float = 10.0
    gossip_period: float = 10.0
    #: uniform per-message latency band.
    latency_min: float = 0.05
    latency_max: float = 0.5
    loss_rate: float = 0.0
    #: uniform jitter added to every timer period (fraction of period).
    clock_jitter: float = 0.1
    quality_threshold: float | None = None
    #: expected crashes (and joins) per second, Poisson.  0 = no churn.
    crash_rate: float = 0.0
    join_rate: float = 0.0
    min_population: int = 1
    monitor_period: float = 5.0
    seed: int = 0
    newscast: NewscastConfig = field(default_factory=NewscastConfig)
    pso: PSOConfig = field(default_factory=PSOConfig)
    coordination: CoordinationConfig = field(default_factory=CoordinationConfig)

    # Each bad value would surface mid-run as a corrupt event heap (NaN
    # timestamps, periods that schedule into the past, churn rates that
    # overflow the exponential draw): construction rejects it instead.
    RULES = {
        "function": text, "nodes": count(), "particles_per_node": count(),
        "budget_per_node": count(), "evals_per_tick": count(),
        "compute_period": PERIOD, "newscast_period": PERIOD,
        "gossip_period": PERIOD, "latency_min": LATENCY, "latency_max": LATENCY,
        "loss_rate": FRACTION, "clock_jitter": JITTER,
        "quality_threshold": optional(real(above=0)), "crash_rate": RATE,
        "join_rate": RATE, "min_population": count(), "monitor_period": PERIOD,
        "seed": count(min=0), "newscast": bundle(NewscastConfig),
        "pso": bundle(PSOConfig), "coordination": bundle(CoordinationConfig),
    }

    def __post_init__(self) -> None:
        check(self, self.RULES)
        require(self.latency_max >= self.latency_min, "latency_max",
                f"must be >= latency_min ({self.latency_min!r})",
                "DeploymentConfig")
        object.__setattr__(
            self, "pso", replace(self.pso, particles=self.particles_per_node)
        )


@dataclass
class DeploymentResult:
    """Outcome of one asynchronous run."""

    best_value: float
    quality: float
    total_evaluations: int
    sim_time: float
    stop_reason: str
    threshold_time: float | None
    messages: MessageTally
    crashes: int
    joins: int
    history: list[tuple[float, int, float]] = field(default_factory=list)
    #: (time, evaluations, best) samples from the monitor.
    dynamics: dict | None = None
    #: dynamic-landscape metrics (None for static scenarios).
    adversary: dict | None = None
    #: attack/defense tallies (None without Byzantine nodes).


class AsyncRuntime:
    """Build and run one asynchronous deployment.

    The engine room behind ``Scenario(engine="event")`` — the session
    facade constructs it per repetition.  ``repetition`` selects the
    seed-tree branch ``("rep", i)``, the same convention the
    cycle-driven engines use, so multi-repetition event scenarios are
    reproducible and order-independent.

    Usage::

        result = AsyncRuntime(config).run(until=600.0)
    """

    def __init__(
        self,
        config: DeploymentConfig,
        repetition: int = 0,
        dynamics=None,
        adversary=None,
    ):
        self.config = config
        self.tree = SeedSequenceTree(config.seed).subtree("rep", repetition)
        self.network = Network(rng=self.tree.rng("network"))

        # Time-aware landscape: compute/gossip timer actions refresh the
        # shared clock, and a dedicated periodic event fires the epoch
        # shift + per-node stale-best refresh on the *exact* boundary.
        self.function, self.problem, self.clock, self.adversary_actor = (
            bind_problem_layer(
                get_function(config.function), dynamics, adversary,
                config.nodes, self.tree,
            )
        )
        self._dyn_tracker = DynamicsTracker() if self.clock is not None else None
        self._dyn_reevals = 0
        #: The reference node stack (:func:`build_optimization_node`)
        #: with the message-passing NEWSCAST as its topology service.
        self.spec = OptimizationNodeSpec(
            function=self.function,
            pso=config.pso,
            newscast=config.newscast,
            coordination=config.coordination,
            rng_tree=self.tree,
            evals_per_cycle=config.evals_per_tick,
            budget_per_node=config.budget_per_node,
            topology_factory=lambda nid: (
                EventNewscastProtocol.PROTOCOL_NAME,
                EventNewscastProtocol(
                    config.newscast, self.tree.rng("node", nid, "newscast")
                ),
            ),
            adversary=self.adversary_actor,
        )

        transport = UniformLatencyTransport(
            self.tree.rng("latency"),
            min_delay=config.latency_min,
            max_delay=config.latency_max,
        )
        if config.loss_rate > 0:
            transport = LossyTransport(
                transport, config.loss_rate, self.tree.rng("loss")
            )
        self.engine = EventDrivenEngine(
            self.network, transport=transport, rng=self.tree.rng("engine")
        )

        self.history: list[tuple[float, int, float]] = []
        self.threshold_time: float | None = None
        self.crashes = 0
        self.joins = 0
        self._stop_reason = "horizon"

        for _ in range(config.nodes):
            self._spawn_node(bootstrap=False)
        bootstrap_views(
            self.network, self.tree.rng("bootstrap"),
            protocol_name=EventNewscastProtocol.PROTOCOL_NAME,
        )
        self._schedule_monitor()
        if self.clock is not None:
            self._schedule_shifts()
        if config.crash_rate > 0:
            self._schedule_crash()
        if config.join_rate > 0:
            self._schedule_join()

    # -- node lifecycle ---------------------------------------------------------

    def _spawn_node(self, bootstrap: bool) -> Node:
        cfg = self.config
        node = self.network.create_node(birth_cycle=int(self.engine.now))
        nid = node.node_id
        build_optimization_node(node, self.spec)
        if bootstrap:
            node.protocol(EventNewscastProtocol.PROTOCOL_NAME).on_join(
                node, self.engine
            )

        def compute(n, e):
            if self.clock is not None:
                self.clock.time = e.now
            n.protocol("pso").next_cycle(n, e)

        def gossip(n, e):
            if self.clock is not None:
                self.clock.time = e.now
            n.protocol("coordination").maybe_exchange(n, e)

        timer_rng = self.tree.rng("node", nid, "timers")
        self._schedule_node_timer(
            node, cfg.compute_period, timer_rng, compute
        )
        self._schedule_node_timer(
            node, cfg.newscast_period, timer_rng,
            lambda n, e: n.protocol("newscast").initiate(n, e),
        )
        self._schedule_node_timer(
            node, cfg.gossip_period, timer_rng, gossip
        )
        return node

    def _schedule_node_timer(self, node: Node, period: float, rng, action) -> None:
        """Periodic per-node timer with random phase and jitter.

        The timer silently dies when its node does — crashed machines
        tick no clocks.
        """
        cfg = self.config
        nid = node.node_id

        def fire(engine) -> None:
            if engine.stopped or not self.network.is_alive(nid):
                return
            action(self.network.node(nid), engine)
            delay = period * (1.0 + cfg.clock_jitter * float(rng.random()))
            engine.schedule(engine.now + delay, fire)

        phase = period * float(rng.random())
        self.engine.schedule(self.engine.now + phase, fire)

    # -- churn --------------------------------------------------------------------

    def _schedule_crash(self) -> None:
        cfg = self.config
        rng = self.tree.rng("churn", "crash")

        def fire(engine) -> None:
            if engine.stopped:
                return
            if self.network.live_count > cfg.min_population:
                victim = self.network.random_live_node()
                self.network.crash(victim.node_id)
                self.crashes += 1
            engine.schedule(
                engine.now + float(rng.exponential(1.0 / cfg.crash_rate)), fire
            )

        self.engine.schedule(
            float(rng.exponential(1.0 / cfg.crash_rate)), fire
        )

    def _schedule_join(self) -> None:
        cfg = self.config
        rng = self.tree.rng("churn", "join")

        def fire(engine) -> None:
            if engine.stopped:
                return
            self._spawn_node(bootstrap=True)
            self.joins += 1
            engine.schedule(
                engine.now + float(rng.exponential(1.0 / cfg.join_rate)), fire
            )

        self.engine.schedule(
            float(rng.exponential(1.0 / cfg.join_rate)), fire
        )

    # -- dynamic landscape --------------------------------------------------------

    def _schedule_shifts(self) -> None:
        """Fire the epoch transition on the exact virtual-time boundary.

        Advances the shared clock's epoch and re-evaluates every live
        node's remembered bests under the new landscape (see
        :meth:`~repro.pso.swarm.Swarm.refresh_stale_bests`); the
        re-evaluations are tallied, never budget-charged.
        """
        period = self.problem.period

        def fire(engine) -> None:
            if engine.stopped:
                return
            self.clock.time = engine.now
            epoch = self.problem.epoch_at(engine.now)
            if epoch != self.clock.epoch:
                self.clock.epoch = epoch
                for node in self.network.live_nodes():
                    if node.has_protocol(PSOStepProtocol.PROTOCOL_NAME):
                        proto = node.protocol(PSOStepProtocol.PROTOCOL_NAME)
                        self._dyn_reevals += (
                            proto.service.refresh_stale_bests()
                        )
            engine.schedule(engine.now + period, fire)

        self.engine.schedule(period, fire)

    # -- monitoring and stopping ------------------------------------------------------

    def _schedule_monitor(self) -> None:
        cfg = self.config

        def fire(engine) -> None:
            if engine.stopped:
                return
            best = global_best(self.network)
            evals = total_evaluations(self.network)
            self.history.append((engine.now, evals, best))
            if self._dyn_tracker is not None:
                self.clock.time = engine.now
                self._dyn_tracker.sample(
                    engine.now,
                    self.problem.epoch_at(engine.now),
                    network_true_error(self.network, self.problem, engine.now),
                )
            if (
                cfg.quality_threshold is not None
                and self.threshold_time is None
                and best <= cfg.quality_threshold
            ):
                self.threshold_time = engine.now
                self._stop_reason = "threshold"
                engine.stop("threshold")
                return
            if all_budgets_exhausted(engine):
                self._stop_reason = "budget"
                engine.stop("budget")
                return
            engine.schedule(engine.now + cfg.monitor_period, fire)

        self.engine.schedule(cfg.monitor_period, fire)

    # -- execution -----------------------------------------------------------------

    def run(self, until: float) -> DeploymentResult:
        """Run until the horizon, the budget, or the quality threshold."""
        if until <= 0:
            raise ValueError("until must be positive")
        self.engine.run(until=until)
        best = global_best(self.network)
        dynamics_dict, adversary_dict = problem_layer_metrics(
            self.network, self.problem, self.engine.now, self._dyn_tracker,
            self._dyn_reevals, self.adversary_actor,
        )
        return DeploymentResult(
            best_value=best,
            quality=self.function.quality(best),
            total_evaluations=total_evaluations(self.network),
            sim_time=self.engine.now,
            stop_reason=self._stop_reason if self.engine.stopped else "horizon",
            threshold_time=self.threshold_time,
            messages=MessageTally.collect(self.engine),
            crashes=self.crashes,
            joins=self.joins,
            history=list(self.history),
            dynamics=dynamics_dict,
            adversary=adversary_dict,
        )
