"""repro — a decentralized P2P architecture for optimization.

A complete, self-contained reproduction of

    Marco Biazzini, Mauro Brunato, Alberto Montresor,
    *Towards a Decentralized Architecture for Optimization*,
    IPPS 2008.

The library spreads a single optimization task across a large,
churn-prone peer-to-peer network with no central coordinator: every
node runs a small particle swarm, learns communication partners
through the NEWSCAST gossip peer-sampling protocol, and diffuses the
best-known optimum with an anti-entropy epidemic.

Quick start
-----------

Every run — any engine, workload or baseline — is declared as one
:class:`~repro.scenario.Scenario` and executed by a
:class:`~repro.scenario.Session`:

>>> from repro import Scenario, Session
>>> scenario = Scenario(
...     function="sphere", nodes=16, particles_per_node=8,
...     total_evaluations=16_000, gossip_cycle=8,
...     repetitions=3, seed=42,
... )
>>> result = Session(scenario).run()
>>> result.quality_stats.mean < 1.0
True

Swap ``engine="fast"`` for the vectorized SoA kernel,
``engine="event"`` (plus a ``horizon``) for the asynchronous
deployment (add ``event_backend="fast"`` to run it cohort-batched on
the same SoA kernels), ``topology="star"`` for master–slave,
or ``baseline="centralized"`` for the single-machine reference — same
spec, same unified :class:`~repro.scenario.Result`.

Package map
-----------

=======================  ====================================================
``repro.scenario``       the public API: declarative Scenario specs + the
                         Session facade over every engine and baseline
``repro.core``           the framework: services, anti-entropy coordination,
                         distributed PSO, the engine implementations
``repro.simulator``      PeerSim-style cycle/event-driven P2P simulator
``repro.topology``       NEWSCAST peer sampling + static overlays + analysis
``repro.pso``            particle swarm solvers (gbest, lbest, FIPS)
``repro.functions``      benchmark objective suite
``repro.baselines``      centralized / independent baselines (master-slave is
                         ``Scenario(topology="star")``)
``repro.deployment``     asynchronous event-driven runtime
``repro.analysis``       run statistics, paper-style tables, ASCII plots
``repro.experiments``    one module per paper table/figure
=======================  ====================================================
"""

from repro.core import Optimum, RunResult
from repro.functions import available_functions, get_function
from repro.scenario import (
    ExecutionPolicy,
    Result,
    RunRecord,
    Scenario,
    ScenarioValidationError,
    Session,
    TransportSpec,
)
from repro.utils.config import (
    ChurnConfig,
    CoordinationConfig,
    ExperimentConfig,
    NewscastConfig,
    PSOConfig,
)

__version__ = "3.0.0"

__all__ = [
    "__version__",
    # The documented public surface: declarative scenarios.
    "Scenario",
    "Session",
    "ExecutionPolicy",
    "Result",
    "RunRecord",
    "TransportSpec",
    "ScenarioValidationError",
    # Configuration bundles shared by scenarios and engine configs.
    "ExperimentConfig",
    "NewscastConfig",
    "PSOConfig",
    "CoordinationConfig",
    "ChurnConfig",
    "RunResult",
    "Optimum",
    "get_function",
    "available_functions",
]
