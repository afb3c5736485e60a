"""Service interfaces of the generic framework (paper Sec. 3.2).

The architecture deliberately separates three concerns so each can be
swapped independently:

* **topology** — :class:`repro.topology.sampler.PeerSampler` (defined
  with the topology implementations),
* **function optimization** — :class:`OptimizationService` below,
* **coordination** — :class:`CoordinationService` below.

The paper instantiates them as NEWSCAST + PSO + anti-entropy; the
named overlays instantiate the topology service differently with no
changes to the other services — that
substitutability is the framework's central claim, and tests exercise
it directly.
"""

from __future__ import annotations

import abc

from repro.core.optimum import Optimum

__all__ = ["OptimizationService", "CoordinationService"]


class OptimizationService(abc.ABC):
    """The local solver running at one node.

    Contract:

    * :meth:`local_step` performs exactly one function evaluation and
      updates the node's best knowledge;
    * :meth:`current_best` reports the node's *swarm optimum* — the
      best point it knows, found locally or adopted from a peer;
    * :meth:`offer` lets the coordination service inject remote
      knowledge; the solver must adopt it iff strictly better, and the
      adopted point must steer subsequent search (it becomes the
      social attractor in PSO terms).
    """

    @abc.abstractmethod
    def local_step(self) -> float:
        """Perform one function evaluation; returns the value computed."""

    @abc.abstractmethod
    def current_best(self) -> Optimum | None:
        """The node's swarm optimum, or None before any evaluation."""

    @abc.abstractmethod
    def offer(self, optimum: Optimum) -> bool:
        """Inject a remote optimum; adopt iff strictly better.

        Returns True if the node's best knowledge improved.
        """

    @property
    @abc.abstractmethod
    def evaluations(self) -> int:
        """Local function evaluations performed so far ("local time")."""


class CoordinationService(abc.ABC):
    """Decides when and with whom search information is exchanged.

    Implementations typically piggyback on a
    :class:`~repro.topology.sampler.PeerSampler` for partner selection
    and talk to the local :class:`OptimizationService` through
    :meth:`OptimizationService.current_best` / ``offer``.
    """

    @abc.abstractmethod
    def maybe_exchange(self, node, engine) -> bool:
        """Give the service a chance to communicate.

        Called by the runner whenever the local clock advances (in our
        cycle-driven setup: once per cycle, after the node's local
        evaluations).  Returns True if an exchange was initiated.
        """
