"""Asynchronous (event-driven) deployment of the framework.

The paper evaluates in PeerSim's *cycle-driven* mode — lock-step
logical time — but its architecture is meant for real networks where
nodes tick on their own clocks and messages take time and get lost.
This package deploys the unchanged service stack in that regime:

* :mod:`~repro.deployment.newscast_ed` — NEWSCAST as a true
  message-passing protocol (request/reply view exchange over the
  transport, tolerant of loss, latency and reordering);
* :mod:`~repro.deployment.runtime` — per-node independent timers with
  clock jitter for compute, peer-sampling and gossip; latency/loss
  transports; Poisson churn as scheduled events; budget/threshold
  stopping.

The equivalence tests (``tests/deployment/``) check the library's
central fidelity claim: the asynchronous deployment reaches the same
quality regime as the cycle-driven simulation of the same
configuration — message timing changes *when* knowledge moves, not
*what* the system computes.
"""

from repro.deployment.newscast_ed import EventNewscastProtocol
from repro.deployment.runtime import (
    AsyncRuntime,
    DeploymentConfig,
    DeploymentResult,
)

__all__ = [
    "EventNewscastProtocol",
    "AsyncRuntime",
    "DeploymentConfig",
    "DeploymentResult",
]
