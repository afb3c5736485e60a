"""Unified scenario layer: one declarative spec for every frontend.

The paper's system is a single architecture observed under many
regimes — cycle-driven sweeps, a vectorized fast path, an asynchronous
deployment, baseline comparisons.  This package collapses the
hand-rolled entry points those regimes used to have into one pair of
concepts:

* :class:`Scenario` — a frozen, validated, JSON-round-trippable value
  describing *what* to run: network size, swarm shape, objective,
  topology model, churn, transport, engine, stop conditions, seed.
* :class:`Session` — the facade that executes a scenario on any
  engine via ``run()`` / ``sweep()`` / ``trajectory()``, returning the
  unified :class:`Result` shape.

Quick start::

    from repro.scenario import Scenario, Session

    scenario = Scenario(function="sphere", nodes=64,
                        particles_per_node=8, total_evaluations=128_000,
                        gossip_cycle=8, repetitions=5, engine="fast")
    result = Session(scenario).run()
    print(result.quality_stats.mean)

This is the only way in: there is no per-regime entry point beside
it.  Master–slave is ``topology="star"``, the baselines are
``baseline="centralized"`` / ``"independent"``, the asynchronous
deployment is ``engine="event"``.
"""

from repro.scenario.policy import EXECUTION_FIELDS, ExecutionPolicy
from repro.scenario.result import Result, RunRecord
from repro.scenario.session import Session
from repro.scenario.spec import (
    BASELINES,
    ENGINES,
    EVENT_BACKENDS,
    TOPOLOGIES,
    AdversarySpec,
    DynamicsSpec,
    Scenario,
    ScenarioValidationError,
    TransportSpec,
)

__all__ = [
    "Scenario",
    "Session",
    "ExecutionPolicy",
    "EXECUTION_FIELDS",
    "Result",
    "RunRecord",
    "TransportSpec",
    "DynamicsSpec",
    "AdversarySpec",
    "ScenarioValidationError",
    "ENGINES",
    "EVENT_BACKENDS",
    "TOPOLOGIES",
    "BASELINES",
]
