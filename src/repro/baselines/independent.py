"""No-coordination baseline: independent parallel runs.

The paper's "without coordination: exploiting stochasticity" extreme
(Sec. 1): ``n`` machines run identical solvers from different random
seeds, never communicate, and the final answer is the best over all
runs.  Equivalent to the distributed framework with the coordination
service disabled — which is exactly how it is implemented: each
node's swarm runs its local budget in isolation.

Comparing this against the full framework isolates the value of the
epidemic coordination (ablation A3).  Declared as
``Scenario(baseline="independent", ...)`` and executed by the session
facade, which calls :func:`run_record` per repetition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.metrics import MessageTally
from repro.functions.base import get_function
from repro.pso.swarm import Swarm
from repro.utils.rng import SeedSequenceTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.result import RunRecord
    from repro.scenario.spec import Scenario

__all__ = ["run_record"]


def run_record(scenario: "Scenario", repetition: int) -> "RunRecord":
    """One best-of-``n`` repetition as a unified record (Session hook).

    Seed derivation (``("independent", rep, "node", i)``) is unchanged
    from the pre-facade baseline, so results are bit-compatible across
    the API migration.  Per-node final qualities land in the record's
    ``node_qualities`` field.
    """
    from repro.scenario.result import RunRecord

    function = get_function(scenario.function)
    budget = scenario.evaluations_per_node
    tree = SeedSequenceTree(scenario.seed)
    node_bests: list[float] = []
    node_qualities: list[float] = []
    evaluations = 0
    for rng in tree.rngs(("independent", repetition, "node"), range(scenario.nodes)):
        swarm = Swarm(function, scenario.pso, rng)
        best = swarm.run(budget)
        node_bests.append(best)
        node_qualities.append(function.quality(best))
        evaluations += swarm.state.evaluations
    best_value = min(node_bests)
    return RunRecord(
        best_value=best_value,
        quality=min(node_qualities),
        total_evaluations=evaluations,
        cycles=0,
        stop_reason="budget",
        threshold_local_time=None,
        threshold_total_evaluations=None,
        messages=MessageTally(),
        node_best_spread=max(node_bests) - best_value,
        node_qualities=node_qualities,
    )
