"""Synthetic churn: node crashes and joins.

The paper's application scenario is an organization's desktop pool
where "nodes may join and leave the system at will" (Sec. 1) and the
framework must tolerate it without special provisions (Sec. 3.3.4).
The authors do not publish churn traces, so — per the reproduction's
substitution rule — we model churn as a memoryless stochastic process:

* each live node crashes, independently, with probability
  ``crash_rate`` per cycle (geometric session lengths, the standard
  first-order model of desktop availability), and
* ``join_rate × initial_size`` new nodes arrive per cycle in
  expectation (Poisson arrivals).

A :class:`NodeFactory` builds fresh nodes: the experiment supplies one
that attaches NEWSCAST (bootstrapped from a random live contact) plus
a freshly initialized PSO service — matching "joining nodes start with
a random position and velocity" (Sec. 3.3.4).

For heavier-tailed realism, :class:`SessionChurn` draws per-node
session lengths from a configurable distribution instead of the
memoryless model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.utils.config import ChurnConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import CycleDrivenEngine
    from repro.simulator.network import Node

__all__ = ["NodeFactory", "ChurnProcess", "SessionChurn"]

#: A NodeFactory receives a freshly created node plus the engine and
#: attaches/initializes its protocols.
NodeFactory = Callable[["Node", "CycleDrivenEngine"], None]


class ChurnProcess:
    """Memoryless crash/join process driven once per cycle.

    Parameters
    ----------
    config:
        Rates and the population floor.
    factory:
        Builder for joining nodes.  May be ``None`` if ``join_rate`` is
        zero.
    rng:
        Dedicated stream; churn randomness must not perturb protocol
        streams.
    """

    def __init__(
        self,
        config: ChurnConfig,
        factory: NodeFactory | None,
        rng: np.random.Generator,
    ):
        if config.join_rate > 0 and factory is None:
            raise ValueError("join_rate > 0 requires a node factory")
        self.config = config
        self.factory = factory
        self.rng = rng
        self._initial_size: int | None = None
        self.crashes = 0
        self.joins = 0

    def step(self, engine: "CycleDrivenEngine") -> None:
        """Apply one cycle of churn to the engine's network."""
        net = engine.network
        if self._initial_size is None:
            self._initial_size = net.live_count

        cfg = self.config
        # Crashes: binomial thinning of the live population, respecting
        # the floor so experiments never lose the whole network.
        if cfg.crash_rate > 0:
            live = net.live_ids()
            headroom = max(0, len(live) - cfg.min_population)
            if headroom > 0:
                n_crash = int(self.rng.binomial(len(live), cfg.crash_rate))
                n_crash = min(n_crash, headroom)
                if n_crash > 0:
                    victims = self.rng.choice(len(live), size=n_crash, replace=False)
                    for idx in victims:
                        nid = live[int(idx)]
                        node = net.node(nid)
                        for name in node.protocol_names():
                            proto = node.protocol(name)
                            on_crash = getattr(proto, "on_crash", None)
                            if on_crash is not None:
                                on_crash(node, engine)
                        net.crash(nid)
                        self.crashes += 1

        # Joins: Poisson arrivals scaled to the initial population.
        if cfg.join_rate > 0 and self.factory is not None:
            lam = cfg.join_rate * self._initial_size
            n_join = int(self.rng.poisson(lam))
            for _ in range(n_join):
                node = net.create_node(birth_cycle=engine.cycle)
                self.factory(node, engine)
                for name in node.protocol_names():
                    proto = node.protocol(name)
                    on_join = getattr(proto, "on_join", None)
                    if on_join is not None:
                        on_join(node, engine)
                self.joins += 1


class SessionChurn:
    """Churn with explicit per-node session lengths.

    On creation each live node is assigned a remaining-session counter
    drawn from ``session_sampler``; each cycle counters decrement and
    expired nodes crash.  A constant arrival rate keeps the expected
    population stationary.  This produces the heavy-tailed uptime mix
    (many short sessions, few long ones) observed in desktop grids.

    Parameters
    ----------
    session_sampler:
        Callable ``(rng) -> int`` returning a session length in cycles
        (>= 1).
    arrivals_per_cycle:
        Expected Poisson arrivals per cycle.
    factory:
        Builder for joining nodes.
    rng:
        Dedicated stream.
    min_population:
        Crash floor, as in :class:`ChurnProcess`.
    """

    def __init__(
        self,
        session_sampler: Callable[[np.random.Generator], int],
        arrivals_per_cycle: float,
        factory: NodeFactory,
        rng: np.random.Generator,
        min_population: int = 1,
    ):
        if arrivals_per_cycle < 0:
            raise ValueError("arrivals_per_cycle must be >= 0")
        if min_population < 1:
            raise ValueError("min_population must be >= 1")
        self.session_sampler = session_sampler
        self.arrivals_per_cycle = arrivals_per_cycle
        self.factory = factory
        self.rng = rng
        self.min_population = min_population
        self._deadline: dict[int, int] = {}
        self.crashes = 0
        self.joins = 0

    def _assign_session(self, node_id: int, current_cycle: int) -> None:
        length = int(self.session_sampler(self.rng))
        if length < 1:
            raise ValueError("session sampler returned a length < 1")
        self._deadline[node_id] = current_cycle + length

    def step(self, engine: "CycleDrivenEngine") -> None:
        """Expire sessions, then admit arrivals."""
        net = engine.network
        cycle = engine.cycle

        # Lazily assign sessions to the initial population.
        for nid in net.live_ids():
            if nid not in self._deadline:
                self._assign_session(nid, cycle)

        expired = [
            nid
            for nid in net.live_ids()
            if self._deadline.get(nid, cycle + 1) <= cycle
        ]
        for nid in expired:
            if net.live_count <= self.min_population:
                break
            node = net.node(nid)
            for name in node.protocol_names():
                proto = node.protocol(name)
                on_crash = getattr(proto, "on_crash", None)
                if on_crash is not None:
                    on_crash(node, engine)
            net.crash(nid)
            self._deadline.pop(nid, None)
            self.crashes += 1

        n_join = int(self.rng.poisson(self.arrivals_per_cycle))
        for _ in range(n_join):
            node = net.create_node(birth_cycle=cycle)
            self.factory(node, engine)
            self._assign_session(node.node_id, cycle)
            for name in node.protocol_names():
                proto = node.protocol(name)
                on_join = getattr(proto, "on_join", None)
                if on_join is not None:
                    on_join(node, engine)
            self.joins += 1


def lognormal_sessions(
    median_cycles: float, sigma: float = 1.0
) -> Callable[[np.random.Generator], int]:
    """Session sampler with log-normal lengths (heavy-tailed uptimes)."""
    if median_cycles < 1:
        raise ValueError("median_cycles must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    mu = float(np.log(median_cycles))

    def sample(rng: np.random.Generator) -> int:
        return max(1, int(round(float(rng.lognormal(mu, sigma)))))

    return sample
