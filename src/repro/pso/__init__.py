"""Particle swarm optimization solvers.

:class:`~repro.pso.swarm.Swarm` implements the paper's PSO (Sec. 2):
the original Kennedy–Eberhart velocity/position update with
``c1 = c2 = 2`` and per-dimension velocity clamping.  Two stepping
modes are exposed:

* :meth:`~repro.pso.swarm.Swarm.step_particle` — advance exactly one
  particle (one function evaluation).  The distributed runner needs
  this granularity because gossip fires every ``r`` *local function
  evaluations*, which may be mid-sweep through the swarm.
* :meth:`~repro.pso.swarm.Swarm.step_cycle` — classical synchronous
  iteration (evaluate all, update bests, move all), used by the
  centralized baseline.
"""

from repro.pso.state import SwarmState
from repro.pso.swarm import Swarm
from repro.pso.velocity import VelocityClamp, no_clamp, domain_fraction_clamp

__all__ = [
    "Swarm",
    "SwarmState",
    "VelocityClamp",
    "no_clamp",
    "domain_fraction_clamp",
]
