"""Topology services: who can talk to whom.

The framework's *topology service* (paper Sec. 3.2) supplies each node
with communication partners.  Implementations:

* :mod:`~repro.topology.newscast` — the NEWSCAST epidemic
  peer-sampling protocol (the paper's choice, Sec. 3.3.1): partial
  views of ``c`` timestamped descriptors, shuffled by periodic
  push–pull exchanges, yielding an overlay close to a random graph
  with out-degree ``c`` that self-repairs under churn.
* :mod:`~repro.topology.static` — fixed overlays (complete graph,
  ring, star/master–slave, k-regular random, 2-D grid), mentioned by
  the paper as alternative
  instantiations and used by our topology ablation.
* :mod:`~repro.topology.array_views` — the same protocols as
  whole-overlay array kernels (packed descriptor matrices, vectorized
  NEWSCAST merges and CYCLON shuffles) powering the fast engine.
* :mod:`~repro.topology.analysis` — overlay extraction to networkx
  and graph metrics used to validate NEWSCAST's published properties
  (connectivity, degree concentration, self-repair).

Two backends, one abstraction: per-node protocols implement the
:class:`PeerSampler` interface (``sample_peer(node, rng)`` draws from
the node's *local* knowledge — never from global state), and whole-
network backends implement :class:`ViewProvider` (same discipline,
answered for all nodes at once).  :class:`NetworkViewProvider` adapts
any :class:`PeerSampler`-equipped network to the provider contract, so
analysis and tests interrogate either engine's overlay identically.
"""

from repro.topology.views import NodeDescriptor, PartialView
from repro.topology.newscast import NewscastProtocol, bootstrap_views
from repro.topology.cyclon import CyclonConfig, CyclonProtocol, bootstrap_cyclon
from repro.topology.sampler import PeerSampler
from repro.topology.provider import (
    ARRAY_TOPOLOGIES,
    NetworkViewProvider,
    TopologyPlan,
    ViewProvider,
    make_array_provider,
)
from repro.topology.array_views import (
    CyclonArrayViews,
    NewscastArrayViews,
    OracleViews,
    StaticArrayViews,
    merge_views,
)
from repro.topology.static import (
    StaticTopologyProtocol,
    complete_graph,
    grid_2d,
    k_regular_random,
    ring_lattice,
    star_graph,
)
from repro.topology.analysis import (
    overlay_digraph,
    overlay_metrics,
)

__all__ = [
    "NodeDescriptor",
    "PartialView",
    "PeerSampler",
    "ViewProvider",
    "NetworkViewProvider",
    "TopologyPlan",
    "ARRAY_TOPOLOGIES",
    "make_array_provider",
    "merge_views",
    "NewscastArrayViews",
    "CyclonArrayViews",
    "StaticArrayViews",
    "OracleViews",
    "NewscastProtocol",
    "bootstrap_views",
    "CyclonConfig",
    "CyclonProtocol",
    "bootstrap_cyclon",
    "StaticTopologyProtocol",
    "complete_graph",
    "ring_lattice",
    "star_graph",
    "k_regular_random",
    "grid_2d",
    "overlay_digraph",
    "overlay_metrics",
]
