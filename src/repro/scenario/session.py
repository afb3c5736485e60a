"""The session facade: one entry point for every engine and baseline.

A :class:`Session` takes a validated
:class:`~repro.scenario.spec.Scenario` and knows how to execute it on
any of the engines — the per-node reference simulation, the vectorized
SoA fast path, or the asynchronous event-driven deployment — and on
the baseline comparisons, always returning the unified
:class:`~repro.scenario.result.Result` shape.

The facade owns everything that used to be scattered across
hand-rolled entry points: repetition loops, process-parallel
execution, per-engine argument adaptation, topology construction and
sweep iteration.  It is the only way to run a scenario; the engines
below it take what the session hands them.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.runner import _run_single_reference
from repro.scenario.policy import ExecutionPolicy, process_context
from repro.scenario.result import Result, RunRecord
from repro.scenario.spec import Scenario
from repro.utils.exceptions import ConfigurationError

__all__ = ["Session", "run_points"]


def _star_args(args: tuple) -> RunRecord:
    """Top-level helper for multiprocessing (must be picklable)."""
    scenario, repetition = args
    return Session(scenario).run_one(repetition)


def _topology_plan(scenario: Scenario):
    """Materialize the scenario's topology model for the reference engine.

    Returns ``None`` for the default NEWSCAST stack, or a
    :class:`~repro.topology.provider.TopologyPlan` for the other named
    models.  Plans derive random structure (the k-regular wiring, the
    CYCLON per-node streams) from the repetition's seed tree through
    the same paths the fast engine's array providers use, so the two
    backends build comparable — for static overlays, identical —
    graphs.
    """
    topology = scenario.topology
    if topology == "newscast":
        return None
    if topology == "cyclon":
        from repro.topology.cyclon import (
            CyclonConfig,
            CyclonProtocol,
            bootstrap_cyclon,
        )
        from repro.topology.provider import TopologyPlan

        cyclon_config = CyclonConfig(
            view_size=scenario.newscast.view_size,
            shuffle_length=max(1, scenario.newscast.view_size // 2),
        )

        def cyclon_node(node_id: int, tree):
            return (
                CyclonProtocol.PROTOCOL_NAME,
                CyclonProtocol(cyclon_config, tree.rng("node", node_id, "cyclon")),
            )

        return TopologyPlan(
            name="cyclon",
            per_node=cyclon_node,
            bootstrap=lambda network, tree: bootstrap_cyclon(
                network, tree.rng("bootstrap")
            ),
        )
    if topology in ("ring", "star", "kregular"):
        from repro.topology.provider import TopologyPlan, static_adjacency
        from repro.topology.static import StaticTopologyProtocol

        cache: dict[int, tuple[dict, list]] = {}

        def built(tree):
            key = tree.master_seed
            if key not in cache:
                cache[key] = static_adjacency(
                    topology,
                    scenario.nodes,
                    scenario.newscast.view_size,
                    tree.rng("topology", topology),
                )
            return cache[key]

        def static_node(node_id: int, tree):
            adjacency, join_contacts = built(tree)
            return (
                StaticTopologyProtocol.PROTOCOL_NAME,
                StaticTopologyProtocol(
                    adjacency.get(node_id, list(join_contacts))
                ),
            )

        return TopologyPlan(name=topology, per_node=static_node)
    raise ConfigurationError(f"unknown topology {topology!r}")  # pragma: no cover


class Session:
    """Execute a :class:`Scenario` and return unified results.

    >>> from repro.scenario import Scenario, Session
    >>> s = Scenario(function="sphere", nodes=4, particles_per_node=4,
    ...              total_evaluations=480, gossip_cycle=4, seed=3)
    >>> result = Session(s).run()
    >>> len(result.records)
    1
    >>> result.records[0].stop_reason
    'budget'
    """

    def __init__(self, scenario: Scenario):
        if not isinstance(scenario, Scenario):
            raise TypeError("Session takes a repro.scenario.Scenario")
        self.scenario = scenario

    # -- single repetition --------------------------------------------------------

    def run_one(self, repetition: int = 0) -> RunRecord:
        """Execute one repetition; returns its :class:`RunRecord`."""
        return self._RUNNERS[self.scenario.regime](self, repetition)

    def _run_baseline(self, repetition: int) -> RunRecord:
        from repro.baselines import centralized, independent

        module = {"centralized": centralized, "independent": independent}
        return module[self.scenario.baseline].run_record(
            self.scenario, repetition
        )

    def _run_reference(self, repetition: int) -> RunRecord:
        scenario = self.scenario
        run = _run_single_reference(
            scenario.to_experiment_config(),
            repetition=repetition,
            record_history=scenario.record_history,
            plan=_topology_plan(scenario),
            max_cycles=scenario.max_cycles,
            dynamics=scenario.dynamics,
            adversary=scenario.adversary,
        )
        return RunRecord.from_run_result(run)

    def _run_fast(self, repetition: int) -> RunRecord:
        from repro.core.fastpath import run_single_fast

        scenario = self.scenario
        run = run_single_fast(
            scenario.to_experiment_config(),
            repetition=repetition,
            record_history=scenario.record_history,
            max_cycles=scenario.max_cycles,
            topology=scenario.topology,
            rng_mode=scenario.rng_mode,
            kernel_backend=scenario.kernel_backend,
            dynamics=scenario.dynamics,
            adversary=scenario.adversary,
        )
        return RunRecord.from_run_result(run)

    def _run_event(self, repetition: int) -> RunRecord:
        from repro.deployment.runtime import AsyncRuntime

        scenario = self.scenario
        runtime = AsyncRuntime(
            self.deployment_config(),
            repetition=repetition,
            dynamics=scenario.dynamics,
            adversary=scenario.adversary,
        )
        return RunRecord.from_deployment_result(runtime.run(until=scenario.horizon))

    def _run_event_fast(self, repetition: int) -> RunRecord:
        from repro.core.eventpath import CohortEventEngine

        scenario = self.scenario
        engine = CohortEventEngine(
            self.deployment_config(),
            repetition=repetition,
            window=scenario.event_window,
            rng_mode=scenario.rng_mode,
            dynamics=scenario.dynamics,
            adversary=scenario.adversary,
        )
        return RunRecord.from_deployment_result(
            engine.run(until=scenario.horizon)
        )

    #: ``Scenario.regime`` -> the method that runs one repetition of it.
    _RUNNERS = {
        "reference": _run_reference,
        "fast": _run_fast,
        "event": _run_event,
        "event-fast": _run_event_fast,
        "centralized": _run_baseline,
        "independent": _run_baseline,
    }

    def deployment_config(self):
        """The :class:`~repro.deployment.runtime.DeploymentConfig` view
        of an ``event``-engine scenario (exposed for introspection)."""
        from repro.deployment.runtime import DeploymentConfig

        scenario = self.scenario
        # TransportSpec and ChurnConfig fields keep their names here.
        return DeploymentConfig(
            function=scenario.function,
            nodes=scenario.nodes,
            particles_per_node=scenario.particles_per_node,
            budget_per_node=scenario.evaluations_per_node,
            evals_per_tick=scenario.gossip_cycle,
            quality_threshold=scenario.quality_threshold,
            **asdict(scenario.transport),
            **asdict(scenario.churn),
            seed=scenario.seed,
            newscast=scenario.newscast,
            pso=scenario.pso,
            coordination=scenario.coordination,
        )

    # -- all repetitions ----------------------------------------------------------

    def run(
        self,
        progress: Callable[[int, RunRecord], None] | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> Result:
        """Execute every repetition and aggregate into a :class:`Result`.

        Parameters
        ----------
        progress:
            Optional ``(repetition_index, record) -> None`` callback.
        policy:
            The unified execution surface
            (:class:`~repro.scenario.policy.ExecutionPolicy`):
            ``workers`` runs repetitions process-parallel — any
            scenario, since a scenario is a plain value — with results
            identical to the sequential run (each repetition's
            randomness derives from its own seed-tree branch), and —
            ``run`` only — ``shards > 1`` partitions each
            repetition's overlay over shard engines
            (one worker process each, exchanging over pipes, or over a
            replayable ``spool`` when the policy names one); see
            :mod:`repro.sharding`.  ``None`` means the
            sequential default ``ExecutionPolicy()``.
        """
        scenario = self.scenario
        if policy is None:
            policy = ExecutionPolicy()
        if not isinstance(policy, ExecutionPolicy):
            raise TypeError(
                "Session.run takes policy=ExecutionPolicy(...); the loose "
                "execution kwargs (workers=...) were removed"
            )
        workers = policy.workers
        if policy.shards > 1:
            return self._run_sharded(policy, progress)
        t0 = time.perf_counter()
        records: list[RunRecord] = []
        if workers == 1 or scenario.repetitions == 1:
            for rep in range(scenario.repetitions):
                record = self.run_one(rep)
                records.append(record)
                if progress is not None:
                    progress(rep, record)
        else:
            jobs = [(scenario, rep) for rep in range(scenario.repetitions)]
            with process_context().Pool(min(workers, scenario.repetitions)) as pool:
                # imap, not map: map blocks until the *last* repetition,
                # firing every progress callback at once at the end —
                # long parallel runs looked hung.  imap streams records
                # back (order-preserving) as repetitions finish.
                for rep, record in enumerate(pool.imap(_star_args, jobs)):
                    records.append(record)
                    if progress is not None:
                        progress(rep, record)
        return Result(
            scenario=scenario,
            records=records,
            elapsed_seconds=time.perf_counter() - t0,
        )

    def _run_sharded(
        self,
        policy: ExecutionPolicy,
        progress: Callable[[int, RunRecord], None] | None,
    ) -> Result:
        """Repetition loop of the sharded runtime (``policy.shards > 1``)."""
        from pathlib import Path

        from repro.sharding import run_sharded

        scenario = self.scenario
        t0 = time.perf_counter()
        records: list[RunRecord] = []
        for rep in range(scenario.repetitions):
            spool = None
            if policy.spool is not None:
                # One exchange directory per repetition: windows of
                # different repetitions must never mix.
                spool = Path(policy.spool) / f"rep{rep:05d}"
            record = run_sharded(
                scenario, repetition=rep, shards=policy.shards, spool=spool
            )
            records.append(record)
            if progress is not None:
                progress(rep, record)
        return Result(
            scenario=scenario,
            records=records,
            elapsed_seconds=time.perf_counter() - t0,
        )

    # -- sweeps and trajectories --------------------------------------------------

    def scenarios(self, **axes: Sequence) -> Iterator[Scenario]:
        """Cartesian-product scenario iterator over field axes.

        Axes iterate in the order given, rightmost fastest (nested
        loops), so sweep output order is deterministic.
        """
        from dataclasses import fields

        names = list(axes)
        valid = {f.name for f in fields(Scenario)}
        for name in names:
            if name not in valid:
                from repro.scenario.policy import EXECUTION_FIELDS

                if name in EXECUTION_FIELDS:
                    raise ConfigurationError(
                        f"{name!r} is an execution knob, not a sweep axis — "
                        "pass policy=ExecutionPolicy(...)"
                    )
                raise ConfigurationError(f"unknown sweep axis {name!r}")

        def rec(i: int, current: Scenario) -> Iterator[Scenario]:
            if i == len(names):
                yield current
                return
            for value in axes[names[i]]:
                yield from rec(i + 1, current.with_(**{names[i]: value}))

        yield from rec(0, self.scenario)

    def sweep(
        self,
        progress: Callable[[Scenario, Result], None] | None = None,
        policy: ExecutionPolicy | None = None,
        **axes: Sequence,
    ) -> list[Result]:
        """Run the cartesian sweep over ``axes``; one Result per point.

        :func:`run_points` over :meth:`scenarios` — see there for what
        ``policy`` selects.  ``progress`` is ``(scenario, result) ->
        None``, fired once per point: in sweep order when sequential,
        as points complete (possibly out of order) under a parallel
        policy — the returned list is ordered either way.
        """
        point_progress = None
        if progress is not None:
            point_progress = lambda i, scenario, result: progress(  # noqa: E731
                scenario, result
            )
        return run_points(self.scenarios(**axes), point_progress, policy)

    def trajectory(self, repetition: int = 0) -> list:
        """Quality-over-time samples of one repetition.

        Cycle engines return :class:`~repro.core.metrics.QualitySample`
        lists; the event engine returns its monitor's
        ``(time, evaluations, best)`` tuples.  Baselines keep no
        trajectory and return ``[]``.
        """
        if self.scenario.baseline is not None:
            return []
        session = Session(self.scenario.with_(record_history=True))
        return list(session.run_one(repetition).history)

    # -- escape hatch -------------------------------------------------------------

    def build_network(self, repetition: int = 0):
        """Materialize the scenario's node graph without running it.

        Reference-engine escape hatch for protocol-level work (extra
        per-node protocols, custom drivers): returns
        ``(network, spec, tree)`` — the populated simulator network,
        the node spec (churn processes use it as the join factory) and
        the repetition's seed tree.  The caller owns engine
        construction and stopping from here.
        """
        from repro.core.runner import _build_network
        from repro.functions.base import get_function
        from repro.utils.rng import SeedSequenceTree

        scenario = self.scenario
        if scenario.regime != "reference":
            raise ConfigurationError(
                "build_network is a reference-engine escape hatch"
            )
        tree = SeedSequenceTree(scenario.seed).subtree("rep", repetition)
        network, spec = _build_network(
            scenario.to_experiment_config(),
            get_function(scenario.function),
            tree,
            _topology_plan(scenario),
        )
        return network, spec, tree

    def max_cycles(self) -> int:
        """The cycle-driven safety cap this scenario runs under."""
        from repro.core.runner import default_max_cycles

        if self.scenario.max_cycles is not None:
            return self.scenario.max_cycles
        return default_max_cycles(self.scenario.to_experiment_config())


def run_points(
    points: Iterable[Scenario],
    progress: Callable[[int, Scenario, Result], None] | None = None,
    policy: ExecutionPolicy | None = None,
) -> list[Result]:
    """Run an explicit list of sweep points; one Result per point, in order.

    The one place a sweep chooses between the sequential loop and the
    distributed job service (:meth:`Session.sweep` and the experiment
    CLI both end here).

    Parameters
    ----------
    policy:
        How the sweep executes, as one
        :class:`~repro.scenario.policy.ExecutionPolicy` value:
        ``workers > 1`` makes the whole sweep one work pool (every
        (point, repetition) pair an independent job, so repetitions of
        different points fill the pool); ``spool`` routes jobs through
        the file-backed :class:`~repro.distributed.spool.JobQueue`
        (workers on other hosts join via ``python -m repro.distributed
        worker --spool DIR``; interrupted sweeps resume);
        ``stale_after`` / ``heartbeat_interval`` / ``job_timeout`` are
        the spool liveness knobs (see
        :func:`~repro.distributed.service.run_sweep_jobs`).  Results
        are pinned identical to the sequential sweep on every path —
        same records, same deterministic point order.  ``shards`` is a
        :meth:`Session.run`-only knob and rejected here.  ``None``
        means the sequential default.
    progress:
        ``(index, scenario, result) -> None``, fired once per point as
        it completes; ``index`` is the point's position in ``points``.
    """
    if policy is None:
        policy = ExecutionPolicy()
    if not isinstance(policy, ExecutionPolicy):
        raise TypeError(
            "sweeps take policy=ExecutionPolicy(...); the loose "
            "execution kwargs (workers=..., spool=..., ...) were removed"
        )
    if policy.shards > 1:
        raise ConfigurationError(
            "sweeps schedule (point, repetition) jobs; overlay "
            "sharding applies to a single scenario — use "
            "Session(scenario).run(policy=ExecutionPolicy(shards=...))"
        )
    if policy.workers > 1 or policy.spool is not None:
        from repro.distributed.service import run_sweep_jobs

        return run_sweep_jobs(points, progress=progress, policy=policy)
    results = []
    for index, scenario in enumerate(points):
        result = Session(scenario).run()
        results.append(result)
        if progress is not None:
            progress(index, scenario, result)
    return results
