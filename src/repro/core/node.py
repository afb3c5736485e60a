"""Node assembly: wiring the three services onto a simulator node.

:func:`build_optimization_node` attaches, in order:

1. the topology service (NEWSCAST by default, or any
   :class:`~repro.topology.sampler.PeerSampler` protocol),
2. the PSO step driver (``r`` local evaluations per cycle),
3. the coordination service (one anti-entropy exchange per cycle).

Attachment order **is** intra-cycle execution order, so each cycle a
node refreshes its view, computes, then gossips — the paper's loop.

:class:`OptimizationNodeSpec` packages everything a node build needs;
the churn process uses it as the factory for joining nodes, which is
how "joining nodes start with a random position and velocity"
(Sec. 3.3.4) is realized: the spec derives fresh per-node streams
from the experiment's seed tree, so a joiner gets brand-new random
particles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.coordination import CoordinationProtocol
from repro.core.dpso import DistributedPSOService, PSOStepProtocol
from repro.functions.base import Function
from repro.topology.newscast import NewscastProtocol
from repro.utils.config import CoordinationConfig, NewscastConfig, PSOConfig
from repro.utils.rng import SeedSequenceTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import CycleDrivenEngine
    from repro.simulator.network import Node

__all__ = ["OptimizationNodeSpec", "build_optimization_node"]


@dataclass
class OptimizationNodeSpec:
    """Everything needed to outfit one node with the service stack.

    Attributes
    ----------
    function:
        The objective every node's PSO optimizes.
    pso / newscast / coordination:
        Per-service parameter bundles.
    rng_tree:
        Seed tree from which per-node private streams are derived
        (path: ``("node", node_id, <service>)``), making node state
        independent of construction order.
    evals_per_cycle:
        Local evaluations per engine cycle (the gossip cycle ``r``).
    budget_per_node:
        Local evaluation budget (``e / n``), or None for threshold-
        stopped runs.
    topology_factory:
        Optional replacement topology: a callable
        ``node_id -> (protocol_name, protocol_instance)`` returning a
        :class:`~repro.topology.sampler.PeerSampler` protocol for that
        node.  ``None`` (default) attaches NEWSCAST.  Used by the named
        non-NEWSCAST overlays (CYCLON, ring, k-regular, star) and the
        event runtime.
    adversary:
        Optional run-wide :class:`~repro.simulator.adversary.Adversary`
        handed to every node's coordination protocol (joiners included
        — they share the instance, though joiner ids are always
        honest).
    """

    function: Function
    pso: PSOConfig
    newscast: NewscastConfig
    coordination: CoordinationConfig
    rng_tree: SeedSequenceTree
    evals_per_cycle: int
    budget_per_node: int | None
    topology_factory: Callable[[int], tuple[str, object]] | None = None
    adversary: object | None = None

    def __call__(self, node: "Node", engine: "CycleDrivenEngine") -> None:
        """NodeFactory interface: outfit ``node`` (used by churn joins)."""
        build_optimization_node(node, self)


def build_optimization_node(node: "Node", spec: OptimizationNodeSpec) -> None:
    """Attach topology + optimizer + coordination to ``node``.

    Each service draws its private RNG from the spec's seed tree under
    this node's id, so two networks built from the same tree are
    identical regardless of node creation order.
    """
    nid = node.node_id
    tree = spec.rng_tree

    if spec.topology_factory is not None:
        topo_name, topo = spec.topology_factory(nid)
        node.attach(topo_name, topo)
    else:
        topo_name = NewscastProtocol.PROTOCOL_NAME
        topo = NewscastProtocol(spec.newscast, tree.rng("node", nid, "newscast"))
        node.attach(topo_name, topo)

    service = DistributedPSOService(
        spec.function, spec.pso, tree.rng("node", nid, "pso")
    )
    stepper = PSOStepProtocol(
        service,
        evals_per_cycle=spec.evals_per_cycle,
        budget=spec.budget_per_node,
    )
    node.attach(PSOStepProtocol.PROTOCOL_NAME, stepper)

    coord = CoordinationProtocol(
        spec.coordination,
        service,
        topology_protocol=topo_name,
        rng=tree.rng("node", nid, "coordination"),
        adversary=spec.adversary,
    )
    node.attach(CoordinationProtocol.PROTOCOL_NAME, coord)
