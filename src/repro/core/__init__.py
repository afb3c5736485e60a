"""The decentralized optimization framework (paper Sec. 3).

This package is the paper's primary contribution: a generic
architecture in which every node of a P2P overlay runs three
cooperating services —

* a **topology service** supplying communication partners
  (:mod:`repro.topology`, NEWSCAST by default),
* a **function optimization service** running the local solver
  (:class:`~repro.core.dpso.DistributedPSOService` wraps a PSO swarm;
  other solvers plug in via :class:`~repro.core.services.OptimizationService`),
* a **coordination service** spreading search information
  (:class:`~repro.core.coordination.CoordinationProtocol`, an
  anti-entropy epidemic on the current global optimum).

:func:`~repro.core.node.build_optimization_node` assembles the stack
on one simulator node; :class:`repro.scenario.Session` executes the
paper's full simulation scenario (``n`` nodes × ``k`` particles, global
budget ``e``, gossip every ``r`` local evaluations) over it and returns
per-repetition records and their aggregate.
"""

from repro.core.optimum import Optimum
from repro.core.services import CoordinationService, OptimizationService
from repro.core.dpso import DistributedPSOService, PSOStepProtocol
from repro.core.coordination import CoordinationProtocol
from repro.core.node import build_optimization_node, OptimizationNodeSpec
from repro.core.metrics import GlobalQualityObserver, global_best, MessageTally
from repro.core.runner import RunResult

__all__ = [
    "Optimum",
    "OptimizationService",
    "CoordinationService",
    "DistributedPSOService",
    "PSOStepProtocol",
    "CoordinationProtocol",
    "build_optimization_node",
    "OptimizationNodeSpec",
    "GlobalQualityObserver",
    "MessageTally",
    "global_best",
    "RunResult",
]
