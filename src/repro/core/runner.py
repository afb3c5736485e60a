"""The experiment runner: the paper's simulation scenario end-to-end.

One *run* (paper Sec. 4, "Simulation scenarios") is:

    ``n`` nodes, each with a swarm of ``k`` particles, globally
    perform ``e`` evaluations of a function ``f``, evenly distributed
    among the swarms; each node exchanges global-optimum information
    with a random peer every ``r`` local evaluations.

Mapping onto the cycle-driven engine: **one engine cycle = ``r``
local evaluations per node**.  Within a cycle each node (shuffled
order) runs NEWSCAST, then its PSO allowance, then one anti-entropy
exchange.  A run ends when every node's local budget ``e/n`` is spent,
or earlier when the optional quality threshold is reached (experiment
4), or at the safety cycle cap.

Repetitions use seed-tree streams ``("rep", i)``, so the whole
experiment is one master seed; results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.dpso import PSOStepProtocol
from repro.core.metrics import (
    DynamicsObserver,
    DynamicsTracker,
    GlobalQualityObserver,
    MessageTally,
    QualitySample,
    problem_layer_metrics,
    total_evaluations,
)
from repro.core.node import OptimizationNodeSpec, build_optimization_node
from repro.functions.base import Function, get_function
from repro.functions.problem import (
    Problem,
    ProblemBoundFunction,
    ProblemClock,
    build_problem,
)
from repro.simulator.adversary import Adversary
from repro.simulator.churn import ChurnProcess
from repro.simulator.engine import CycleDrivenEngine, EngineBase
from repro.simulator.network import Network
from repro.simulator.observers import StopCondition
from repro.topology.newscast import bootstrap_views
from repro.utils.config import ExperimentConfig
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import SeedSequenceTree

__all__ = ["RunResult", "default_max_cycles"]


@dataclass
class RunResult:
    """Outcome of one repetition.

    Attributes
    ----------
    best_value:
        Best objective value found anywhere in the network.
    quality:
        ``best_value − f*`` (== best_value for this suite).
    total_evaluations:
        Function evaluations summed over all swarms.
    cycles:
        Engine cycles executed.
    stop_reason:
        ``"budget"``, ``"threshold"`` or ``"cycle cap"``.
    threshold_local_time:
        Local evaluations per node when the quality threshold was
        first met (the paper's "time"), or None.
    threshold_total_evaluations:
        Global evaluations at that moment, or None.
    messages:
        Communication tally.
    node_best_spread:
        Max − min of per-node best values at the end: how far the
        network is from consensus on the optimum (0 = fully diffused).
    history:
        Per-cycle quality trajectory (empty unless requested).
    crashes / joins:
        Churn events observed during the run (0 without churn).
    dynamics:
        Dynamic-optimization metrics (offline error, recovery times,
        ...) when the scenario has a moving landscape; None otherwise.
    adversary:
        Attack/defense tallies plus the oracle-verified
        ``final_true_error`` when the scenario has Byzantine nodes;
        None otherwise.
    """

    best_value: float
    quality: float
    total_evaluations: int
    cycles: int
    stop_reason: str
    threshold_local_time: int | None
    threshold_total_evaluations: int | None
    messages: MessageTally
    node_best_spread: float
    history: list[QualitySample] = field(default_factory=list)
    crashes: int = 0
    joins: int = 0
    dynamics: dict | None = None
    adversary: dict | None = None

    @property
    def reached_threshold(self) -> bool:
        """Whether the quality threshold was met within budget."""
        return self.threshold_local_time is not None


def _build_network(
    config: ExperimentConfig,
    function: Function,
    tree: SeedSequenceTree,
    plan=None,
    adversary=None,
) -> tuple[Network, OptimizationNodeSpec]:
    """Materialize the population with its topology attached.

    ``plan`` is ``None`` (the default NEWSCAST stack) or a
    :class:`~repro.topology.provider.TopologyPlan` whose ``per_node``
    receives the repetition's seed tree and whose optional
    ``bootstrap`` seeds initial views after the population exists (how
    CYCLON and seeded static overlays come up).
    """
    per_node = None
    if plan is not None:
        per_node = lambda nid: plan.per_node(nid, tree)  # noqa: E731
    spec = OptimizationNodeSpec(
        function=function,
        pso=config.pso,
        newscast=config.newscast,
        coordination=config.coordination,
        rng_tree=tree,
        evals_per_cycle=config.gossip_cycle,
        budget_per_node=config.evaluations_per_node,
        topology_factory=per_node,
        adversary=adversary,
    )
    network = Network(rng=tree.rng("network"))

    def factory(node) -> None:
        build_optimization_node(node, spec)

    network.populate(config.nodes, factory=factory)
    if plan is None:
        bootstrap_views(network, tree.rng("bootstrap"))
    elif plan.bootstrap is not None:
        plan.bootstrap(network, tree)
    return network, spec


def bind_problem_layer(
    function: Function, dynamics, adversary, nodes: int, tree: SeedSequenceTree
) -> tuple[Function, Problem, ProblemClock | None, Adversary | None]:
    """The run-wide problem-layer objects of a node-graph engine.

    Returns ``(function, problem, clock, actor)``.  Under a time-varying
    landscape every node evaluates through one shared problem-bound
    ``function`` reading the run's virtual ``clock`` (the engine
    advances it and triggers the per-node stale-best refresh on epoch
    transitions); a static run keeps the plain function and gets no
    clock.  ``problem`` is the oracle's view either way, ``actor`` the
    run's :class:`~repro.simulator.adversary.Adversary` or ``None``.
    """
    problem = build_problem(function, dynamics, tree)
    clock = None
    if problem.is_dynamic:
        clock = ProblemClock()
        function = ProblemBoundFunction(problem, clock)
    actor = None
    if adversary is not None and adversary.enabled:
        actor = Adversary(adversary, nodes, tree.rng("adversary"))
    return function, problem, clock, actor


def default_max_cycles(config: ExperimentConfig) -> int:
    """The cycle-driven safety cap for ``config``.

    Without churn every original node exhausts within
    ``ceil(budget / r)`` cycles; joiners get headroom via the 2x
    factor.  Single source of truth for the reference engine, the fast
    path and ``Session.max_cycles``.
    """
    base_cycles = math.ceil(config.evaluations_per_node / config.gossip_cycle)
    return 2 * base_cycles + 4 if config.churn.enabled else base_cycles + 1


def all_budgets_exhausted(engine: EngineBase) -> bool:
    """Whether every live node has spent its local evaluation budget."""
    for node in engine.network.live_nodes():
        proto: PSOStepProtocol = node.protocol(PSOStepProtocol.PROTOCOL_NAME)  # type: ignore[assignment]
        if not proto.exhausted:
            return False
    return True


def _run_single_reference(
    config: ExperimentConfig,
    repetition: int = 0,
    record_history: bool = False,
    plan=None,
    max_cycles: int | None = None,
    dynamics=None,
    adversary=None,
) -> RunResult:
    """Reference-engine implementation of one repetition.

    This is the engine room behind :class:`repro.scenario.Session`.
    ``plan`` is :func:`_build_network`'s topology plan.
    """
    if config.evaluations_per_node < 1:
        raise ConfigurationError(
            f"budget e={config.total_evaluations} gives node budget "
            f"{config.evaluations_per_node} < 1 for n={config.nodes}"
        )
    tree = SeedSequenceTree(config.seed).subtree("rep", repetition)
    function = get_function(config.function)

    function, problem, clock, actor = bind_problem_layer(
        function, dynamics, adversary, config.nodes, tree
    )
    network, spec = _build_network(config, function, tree, plan, adversary=actor)

    churn = None
    if config.churn.enabled:
        churn = ChurnProcess(config.churn, spec, tree.rng("churn"))

    quality_obs = GlobalQualityObserver(
        threshold=config.quality_threshold, record_history=record_history
    )
    budget_stop = StopCondition(all_budgets_exhausted, reason="budget")
    tracker = dyn_obs = None
    observers = []
    if clock is not None:
        # Ordered first: the observer loop breaks on stop, and the last
        # cycle's sample must land even when the budget trips.
        tracker = DynamicsTracker()
        dyn_obs = DynamicsObserver(problem, tracker, clock=clock)
        observers.append(dyn_obs)
    observers += [quality_obs, budget_stop]
    engine = CycleDrivenEngine(
        network,
        rng=tree.rng("engine"),
        churn=churn,
        observers=observers,
    )

    if max_cycles is None:
        max_cycles = default_max_cycles(config)
    engine.run(max_cycles)

    stop_reason = engine.stop_reason or "cycle cap"
    best = quality_obs.best_value
    quality = function.quality(best)

    # Spread of per-node bests: diffusion/consensus quality.
    node_bests = []
    for node in network.live_nodes():
        opt = node.protocol(PSOStepProtocol.PROTOCOL_NAME).service.current_best()  # type: ignore[attr-defined]
        if opt is not None:
            node_bests.append(opt.value)
    spread = (max(node_bests) - min(node_bests)) if node_bests else float("inf")

    threshold_local = None
    if quality_obs.threshold_cycle is not None:
        threshold_local = quality_obs.threshold_cycle * config.gossip_cycle

    dynamics_dict, adversary_dict = problem_layer_metrics(
        network, problem, engine.now, tracker,
        dyn_obs.reevaluations if dyn_obs is not None else 0, actor,
    )

    return RunResult(
        best_value=best,
        quality=quality,
        total_evaluations=total_evaluations(network),
        cycles=engine.cycle,
        stop_reason=stop_reason,
        threshold_local_time=threshold_local,
        threshold_total_evaluations=quality_obs.threshold_evaluations,
        messages=MessageTally.collect(engine),
        node_best_spread=spread,
        history=list(quality_obs.history),
        crashes=churn.crashes if churn is not None else 0,
        joins=churn.joins if churn is not None else 0,
        dynamics=dynamics_dict,
        adversary=adversary_dict,
    )
