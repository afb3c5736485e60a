"""Experiment metrics: the paper's figures of merit (Sec. 4).

Three primary quantities:

* **solution quality** — distance of the best value found anywhere in
  the network from the known optimum (our functions all have optimum
  0, so quality = best value);
* **total evaluations** — summed over all swarms;
* **time** — local evaluations per node ("we deliberately avoid
  actual time").

Plus the secondary, analytically-reported one:

* **communication overhead** — messages per node per cycle and an
  estimated bytes/second figure mirroring the paper's back-of-envelope
  (a NEWSCAST exchange moves two views of ``c`` descriptors; a
  coordination exchange moves one or two ``d``-dimensional optima).

Measurement is *oracle-level*: observers read network-wide state the
protocols themselves never see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.dpso import PSOStepProtocol
from repro.simulator.observers import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import CycleDrivenEngine
    from repro.simulator.network import Network

__all__ = [
    "global_best",
    "total_evaluations",
    "GlobalQualityObserver",
    "MessageTally",
    "DynamicsTracker",
    "DynamicsObserver",
    "network_true_error",
    "problem_layer_metrics",
    "estimate_overhead_bytes",
]


def network_true_error(
    network: "Network", problem, t: float,
    protocol: str = PSOStepProtocol.PROTOCOL_NAME,
) -> float:
    """Oracle true error of the best believed position in the network.

    Re-evaluates every live node's believed-best *position* under
    ``problem`` as of time ``t`` — immune to stale values (dynamic
    landscapes) and fabricated ones (Byzantine false bests).  ``inf``
    when no node believes anything yet.
    """
    from repro.functions.problem import EvalContext

    ctx = EvalContext(time=float(t))
    error = float("inf")
    for node in network.live_nodes():
        if not node.has_protocol(protocol):
            continue
        opt = node.protocol(protocol).service.current_best()  # type: ignore[attr-defined]
        if opt is None:
            continue
        true_val = problem.call_at(opt.position, ctx)
        error = min(error, max(0.0, true_val - problem.optimum_value))
    return error


def problem_layer_metrics(
    network: "Network", problem, t: float, tracker: "DynamicsTracker | None",
    reevaluations: int, actor,
) -> tuple[dict | None, dict | None]:
    """A node-graph run's ``(dynamics, adversary)`` record dicts.

    ``None`` each for a static landscape (no ``tracker``) / an honest
    network (no ``actor``); both close on the same oracle
    :func:`network_true_error` at the final time ``t``.  The SoA
    engines' counterpart is ``FastEngine.problem_layer_metrics``.
    """
    dynamics = adversary = None
    if tracker is not None or actor is not None:
        final_true = network_true_error(network, problem, t)
        if tracker is not None:
            dynamics = tracker.metrics(final_error=final_true)
            dynamics["reevaluations"] = int(reevaluations)
        if actor is not None:
            adversary = actor.tally_dict()
            adversary["final_true_error"] = final_true
    return dynamics, adversary


def global_best(network: "Network", protocol: str = PSOStepProtocol.PROTOCOL_NAME) -> float:
    """Best objective value known by any live node (inf if none yet)."""
    best = float("inf")
    for node in network.live_nodes():
        if not node.has_protocol(protocol):
            continue
        opt = node.protocol(protocol).service.current_best()  # type: ignore[attr-defined]
        if opt is not None and opt.value < best:
            best = opt.value
    return best


def total_evaluations(
    network: "Network", protocol: str = PSOStepProtocol.PROTOCOL_NAME
) -> int:
    """Function evaluations summed over all nodes (incl. crashed ones).

    Crashed nodes' past work still counts toward the global budget —
    their evaluations happened.
    """
    total = 0
    for node in network.all_nodes():
        if node.has_protocol(protocol):
            total += node.protocol(protocol).service.evaluations  # type: ignore[attr-defined]
    return total


@dataclass
class QualitySample:
    """One point of the quality-over-time trajectory."""

    cycle: int
    evaluations: int
    best_value: float


class GlobalQualityObserver(Observer):
    """Track the network-wide best value each cycle.

    Doubles as the experiment's early-stop condition: when
    ``threshold`` is given and the best value drops to/below it, the
    engine stops with reason ``"threshold"`` — experiment 4's
    time-to-quality measurement.

    Works against both engine families: node-graph engines are read
    via :func:`global_best`/:func:`total_evaluations` over
    ``engine.network``; engines without one (the vectorized
    :class:`~repro.core.fastpath.FastEngine`) must expose
    ``global_best()`` and ``total_evaluations()`` methods instead.

    Attributes
    ----------
    history:
        Per-cycle :class:`QualitySample` trajectory.
    threshold_cycle / threshold_evaluations:
        When the threshold was first met (None if never).
    """

    def __init__(self, threshold: float | None = None, record_history: bool = True):
        if threshold is not None and threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.record_history = record_history
        self.history: list[QualitySample] = []
        self.best_value = float("inf")
        self.threshold_cycle: int | None = None
        self.threshold_evaluations: int | None = None

    def observe(self, engine: "CycleDrivenEngine") -> None:
        # Engines without a per-node object graph (the SoA fast path)
        # expose oracle readings directly; network engines are read
        # through the protocol-walking helpers.
        network = getattr(engine, "network", None)
        if network is not None:
            best = global_best(network)
            evals = total_evaluations(network)
        else:
            best = engine.global_best()
            evals = engine.total_evaluations()
        if best < self.best_value:
            self.best_value = best
        if self.record_history:
            self.history.append(QualitySample(engine.cycle, evals, self.best_value))
        if (
            self.threshold is not None
            and self.threshold_cycle is None
            and self.best_value <= self.threshold
        ):
            self.threshold_cycle = engine.cycle
            self.threshold_evaluations = evals
            engine.stop("threshold")


@dataclass
class MessageTally:
    """Communication-overhead summary extracted after a run."""

    newscast_exchanges: int = 0
    coordination_messages: int = 0
    coordination_adoptions: int = 0
    transport_sent: int = 0
    transport_to_dead: int = 0

    @classmethod
    def collect(cls, engine: "CycleDrivenEngine") -> "MessageTally":
        """Harvest counters from protocols and the transport."""
        tally = cls()
        for node in engine.network.all_nodes():
            if node.has_protocol("newscast"):
                proto = node.protocol("newscast")
                # Cycle-driven NEWSCAST counts exchanges; the
                # event-driven variant counts requests.
                tally.newscast_exchanges += getattr(
                    proto, "exchanges_initiated", 0
                ) + getattr(proto, "requests_sent", 0)
            if node.has_protocol("coordination"):
                coord = node.protocol("coordination")
                tally.coordination_messages += coord.messages_sent  # type: ignore[attr-defined]
                tally.coordination_adoptions += coord.adoptions  # type: ignore[attr-defined]
        tally.transport_sent = engine.transport.stats.sent
        tally.transport_to_dead = engine.transport.stats.to_dead
        return tally

    def merged(self, other: "MessageTally") -> "MessageTally":
        """Element-wise sum (aggregating tallies across repetitions)."""
        return MessageTally(
            newscast_exchanges=self.newscast_exchanges + other.newscast_exchanges,
            coordination_messages=self.coordination_messages
            + other.coordination_messages,
            coordination_adoptions=self.coordination_adoptions
            + other.coordination_adoptions,
            transport_sent=self.transport_sent + other.transport_sent,
            transport_to_dead=self.transport_to_dead + other.transport_to_dead,
        )

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot for reports."""
        return {
            "newscast_exchanges": self.newscast_exchanges,
            "coordination_messages": self.coordination_messages,
            "coordination_adoptions": self.coordination_adoptions,
            "transport_sent": self.transport_sent,
            "transport_to_dead": self.transport_to_dead,
        }


class DynamicsTracker:
    """Accumulate the dynamic-optimization figures of merit.

    Fed one ``(time, epoch, true_error)`` sample per cycle by a
    :class:`DynamicsObserver`; :meth:`metrics` then derives the
    standard dynamic-PSO quantities:

    * **offline error** — mean true error over all samples (the
      classic time-averaged measure for moving optima);
    * **best error after change** — true error at the first sample of
      each new epoch, averaged (how hard each shift hits);
    * **recovery time** — per shift, time from the transition until
      the error first returns to (or below) its pre-shift level;
      averaged over the shifts that recover before the run ends.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, int, float]] = []

    def sample(self, t: float, epoch: int, error: float) -> None:
        self.samples.append((float(t), int(epoch), float(error)))

    def metrics(self, final_error: float | None = None) -> dict:
        """Summarize the trajectory into a JSON-safe metrics dict."""
        finite = [s for s in self.samples if s[2] != float("inf")]
        offline = (
            sum(s[2] for s in finite) / len(finite) if finite else None
        )
        shifts = 0
        after_change: list[float] = []
        recoveries: list[float] = []
        prev_epoch: int | None = None
        prev_error: float | None = None
        pending: list[tuple[float, float]] = []  # (t_shift, target error)
        for t, epoch, error in self.samples:
            if prev_epoch is not None and epoch != prev_epoch:
                shifts += 1
                after_change.append(error)
                if prev_error is not None and prev_error != float("inf"):
                    pending.append((t, prev_error))
            still = []
            for t_shift, target in pending:
                if error <= target:
                    recoveries.append(t - t_shift)
                else:
                    still.append((t_shift, target))
            pending = still
            prev_epoch, prev_error = epoch, error
        finite_after = [e for e in after_change if e != float("inf")]
        return {
            "samples": len(self.samples),
            "shifts": shifts,
            "offline_error": offline,
            "best_error_after_change": (
                sum(finite_after) / len(finite_after)
                if finite_after
                else None
            ),
            "recovery_time": (
                sum(recoveries) / len(recoveries) if recoveries else None
            ),
            "recovered": len(recoveries),
            "final_error": final_error,
        }


class DynamicsObserver(Observer):
    """Per-cycle oracle sampling of the *true* error under a moving landscape.

    For SoA engines (``engine.current_true_error`` exists) the engine
    re-evaluates incumbents itself.  For node-graph engines the
    observer walks the network, re-evaluating each live node's believed
    best position under ``problem`` as of the engine clock — and, when
    a ``clock`` (:class:`~repro.functions.problem.ProblemClock`) is
    bound, it also advances that clock and triggers the per-node
    stale-best refresh on epoch transitions (the reference stack's
    counterpart of the fast engine's ``_sync_epoch``).
    """

    def __init__(self, problem, tracker: DynamicsTracker, clock=None):
        self.problem = problem
        self.tracker = tracker
        self.clock = clock
        self.reevaluations = 0

    def observe(self, engine) -> None:
        t = float(engine.now)
        epoch = self.problem.epoch_at(t)
        network = getattr(engine, "network", None)
        if self.clock is not None:
            shifted = epoch != self.clock.epoch
            self.clock.time = t
            self.clock.epoch = epoch
            if shifted and network is not None:
                for node in network.live_nodes():
                    if node.has_protocol(PSOStepProtocol.PROTOCOL_NAME):
                        proto = node.protocol(PSOStepProtocol.PROTOCOL_NAME)
                        self.reevaluations += (
                            proto.service.refresh_stale_bests()
                        )
        if hasattr(engine, "current_true_error"):
            error = engine.current_true_error()
        else:
            error = network_true_error(network, self.problem, t)
        self.tracker.sample(t, epoch, error)


def estimate_overhead_bytes(
    view_size: int,
    dimension: int,
    newscast_cycle_seconds: float = 10.0,
    gossip_cycle_seconds: float = 10.0,
    descriptor_bytes: int = 14,
    float_bytes: int = 8,
) -> dict[str, float]:
    """Paper-style bandwidth estimate, bytes/second per node (Sec. 4).

    The paper: "during a cycle two messages of few hundred bytes are
    exchanged per node, inducing an overhead of few bytes per second."
    A descriptor is an address+port+timestamp (≈14 B); an optimum is
    ``d`` coordinates plus the value.

    Returns a dict with per-protocol and total estimates.
    """
    if view_size < 1 or dimension < 1:
        raise ValueError("view_size and dimension must be >= 1")
    if newscast_cycle_seconds <= 0 or gossip_cycle_seconds <= 0:
        raise ValueError("cycle lengths must be positive")
    newscast_msg = view_size * descriptor_bytes
    newscast_bps = 2 * newscast_msg / newscast_cycle_seconds
    optimum_msg = (dimension + 1) * float_bytes
    coordination_bps = 2 * optimum_msg / gossip_cycle_seconds
    return {
        "newscast_message_bytes": float(newscast_msg),
        "newscast_bytes_per_second": newscast_bps,
        "coordination_message_bytes": float(optimum_msg),
        "coordination_bytes_per_second": coordination_bps,
        "total_bytes_per_second": newscast_bps + coordination_bps,
    }
