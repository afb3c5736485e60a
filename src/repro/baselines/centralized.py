"""Centralized baseline: one big swarm, same total budget.

The reference point for the paper's claim (iv): a decentralized
network of ``n`` swarms of ``k`` particles should match "the same
performance we would have on a single, but much more powerful,
machine" — which we model as a single synchronous gbest swarm of
``n·k`` particles (or any chosen size) spending the full global
budget ``e``.

Declared as ``Scenario(baseline="centralized", ...)`` and executed by
the session facade, which calls :func:`run_record` per repetition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.metrics import MessageTally
from repro.functions.base import get_function
from repro.pso.swarm import Swarm
from repro.utils.config import PSOConfig
from repro.utils.rng import SeedSequenceTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.result import RunRecord
    from repro.scenario.spec import Scenario

__all__ = ["run_record"]


def run_record(scenario: "Scenario", repetition: int) -> "RunRecord":
    """One centralized repetition as a unified record (Session hook).

    Seed derivation (``("centralized", rep)`` off the master seed) and
    swarm construction are unchanged from the pre-facade baseline, so
    results are bit-compatible across the API migration.
    """
    from repro.scenario.result import RunRecord

    k = (
        scenario.swarm_size
        if scenario.swarm_size is not None
        else scenario.nodes * scenario.particles_per_node
    )
    function = get_function(scenario.function)
    pso = PSOConfig(
        particles=k,
        c1=scenario.pso.c1,
        c2=scenario.pso.c2,
        vmax_fraction=scenario.pso.vmax_fraction,
        inertia=scenario.pso.inertia,
    )
    tree = SeedSequenceTree(scenario.seed)
    swarm = Swarm(function, pso, tree.rng("centralized", repetition))
    best = swarm.run(scenario.total_evaluations, synchronous=scenario.synchronous)
    return RunRecord(
        best_value=best,
        quality=function.quality(best),
        total_evaluations=swarm.state.evaluations,
        cycles=0,
        stop_reason="budget",
        threshold_local_time=None,
        threshold_total_evaluations=None,
        messages=MessageTally(),
        node_best_spread=0.0,
    )
