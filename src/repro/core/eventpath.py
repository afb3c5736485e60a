"""Cohort-batched event engine: the asynchronous regime on the SoA kernel.

:class:`~repro.deployment.runtime.AsyncRuntime` simulates the paper's
deployment story faithfully — every node ticks on its own jittered
timers, every message is a heap event — and pays for that fidelity
with ``O(events)`` Python round-trips: at ``n = 1000`` a single
simulated second is ~1500 heap pops, each dispatching per-node
protocol objects.  The paper's time-to-quality and churn experiments
(exp4/exp5) cannot scale past small ``n`` on it.

:class:`CohortEventEngine` keeps the asynchronous *model* — per-node
independent timers with drift, Poisson churn in continuous time,
message loss, a monitor sampling wall-clock quality — but executes it
in **time windows**: the virtual clock advances in steps of ``window``
simulated seconds, and all nodes whose next timer firing lands inside
the current window form a *cohort* that runs through the existing
fused kernels at once:

* **compute cohorts** go through :meth:`FastEngine._pso_phase` — one
  fused velocity/position update + one batched objective evaluation
  per chunk, spending ``evals_per_tick`` of each firing node's budget;
* **peer-sampling cohorts** initiate NEWSCAST view exchanges through
  :class:`~repro.topology.array_views.NewscastArrayViews` (the
  ``initiators=`` subset form of its vertex-disjoint exchange rounds);
* **gossip cohorts** run :meth:`FastEngine._gossip_phase` — the one
  anti-entropy exchange (see :mod:`repro.core.fastpath`, step 4) —
  with the window's loss stream; partners may be *any* node.

Within a window the phase order is topology → optimization →
coordination (the reference stack's service order); across windows
events keep global time order.  The approximation is therefore the
*intra-window* event interleaving: two firings less than ``window``
apart may execute in phase order rather than timestamp order.  With
the default window of half the fastest timer period each timer fires
at most once per window and the error is bounded by one firing —
quality trajectories and message tallies are statistically
indistinguishable from :class:`AsyncRuntime`'s (pinned by
``tests/core/test_eventpath.py``), while individual event orderings
(and hence exact trajectories) differ.

Randomness is drawn from the repetition's seed tree: construction-time
state (swarm init, view bootstrap, timer phases) from the same
branches the fast engine uses, and everything per-window — churn
counts, timer drift, gossip partners, message-loss coin flips — from
the branch ``("eventpath", "window", w)``, so any run is reproducible
per ``(seed, window index)`` and independent of wall clock.

What this engine intentionally does **not** model (use
:class:`AsyncRuntime`, the correctness oracle, when they matter):
message *latency* (delivery is intra-window; the default latency band
of 0.05–0.5 s is far below the 10 s protocol periods it would
perturb), reply-leg message loss on view exchanges (request-leg loss
subsumes it statistically), and sub-window event interleaving.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastpath import FastEngine
from repro.core.kernels import grow_rows
from repro.core.metrics import DynamicsTracker, MessageTally
from repro.deployment.runtime import DeploymentConfig, DeploymentResult
from repro.utils.config import ExperimentConfig
from repro.utils.validate import PERIOD

__all__ = ["CohortEventEngine", "default_window"]


def default_window(config: DeploymentConfig) -> float:
    """Half the fastest timer period: every timer fires ≤ once per window."""
    return 0.5 * min(
        config.compute_period, config.newscast_period, config.gossip_period
    )


class CohortEventEngine(FastEngine):
    """Asynchronous deployment semantics on the vectorized SoA kernel.

    Drop-in counterpart of
    :class:`~repro.deployment.runtime.AsyncRuntime`: same
    :class:`~repro.deployment.runtime.DeploymentConfig` in, same
    :class:`~repro.deployment.runtime.DeploymentResult` out, same
    seed-tree convention (``("rep", repetition)``), reached via
    ``Scenario(engine="event", event_backend="fast")``.

    Parameters
    ----------
    config:
        The deployment point.  ``latency_min``/``latency_max`` are
        accepted but not simulated (see the module docstring).
    repetition:
        Seed-tree branch, as everywhere else.
    window:
        Cohort window in simulated seconds; ``None`` uses
        :func:`default_window`.  Larger windows batch more per kernel
        call and approximate event order more coarsely.
    rng_mode:
        Per-particle draw regime of the underlying kernel, as on
        :class:`FastEngine`: ``"strict"`` (default; per-node streams)
        or ``"batched"`` (seed-branched block fills — marginally
        faster, the regime the benchmarks record).  Neither regime
        owes bit-compatibility to :class:`AsyncRuntime`.
    """

    def __init__(
        self,
        config: DeploymentConfig,
        repetition: int = 0,
        window: float | None = None,
        rng_mode: str = "strict",
        dynamics=None,
        adversary=None,
    ):
        self.deployment = config
        if window is None:
            window = default_window(config)
        self.window = float(PERIOD.apply(window, "window", type(self).__name__))
        super().__init__(
            ExperimentConfig(
                function=config.function,
                nodes=config.nodes,
                particles_per_node=config.particles_per_node,
                total_evaluations=config.nodes * config.budget_per_node,
                gossip_cycle=config.evals_per_tick,
                seed=config.seed,
                quality_threshold=config.quality_threshold,
                newscast=config.newscast,
                pso=config.pso,
                coordination=config.coordination,
            ),
            repetition=repetition,
            gossip=True,
            topology="newscast",
            rng_mode=rng_mode,
            dynamics=dynamics,
            adversary=adversary,
        )
        self._dyn_tracker = DynamicsTracker() if self._dynamic else None
        n = config.nodes
        rng = self._tree.rng("eventpath", "timers")
        # Per-id next-firing clocks, random initial phase in [0, period)
        # like AsyncRuntime._schedule_node_timer.
        self._next_compute = config.compute_period * rng.random(n)
        self._next_newscast = config.newscast_period * rng.random(n)
        self._next_gossip = config.gossip_period * rng.random(n)
        self._next_monitor = config.monitor_period
        self._window_index = 0
        #: distinct key per _pso_phase pass so batched draw streams
        #: never repeat for a node id (FastEngine keys them by
        #: ``self.cycle``).
        self._draw_epoch = 0
        self._newscast_requests = 0
        self._newscast_replies = 0
        self.history: list[tuple[float, int, float]] = []
        self.threshold_time: float | None = None

    # -- per-id timer bookkeeping -------------------------------------------------

    def _grow_timers(self, n_ids: int) -> None:
        for name in ("_next_compute", "_next_newscast", "_next_gossip"):
            setattr(self, name, grow_rows(getattr(self, name), n_ids, np.inf))

    def _due(self, live_ids: np.ndarray, clocks: np.ndarray, w_end: float) -> np.ndarray:
        """Ids of ``live_ids`` whose ``clocks`` entry fires before ``w_end``."""
        return live_ids[clocks[live_ids] < w_end]

    def _advance(self, clocks: np.ndarray, ids: np.ndarray, period: float,
                 rng: np.random.Generator) -> None:
        """Reschedule: next = now + period · (1 + jitter·U), per firing."""
        jitter = self.deployment.clock_jitter
        if jitter > 0:
            clocks[ids] += period * (1.0 + jitter * rng.random(ids.shape[0]))
        else:
            clocks[ids] += period

    # -- churn (continuous-time Poisson, drawn per window) -----------------------

    def _churn_window(self, rng: np.random.Generator, span: float) -> None:
        cfg = self.deployment
        if cfg.crash_rate > 0:
            for _ in range(int(rng.poisson(cfg.crash_rate * span))):
                if self.live_count <= cfg.min_population:
                    break
                self._crash(int(self._ids[int(rng.integers(self.live_count))]))
        if cfg.join_rate > 0:
            ids = self._join(int(rng.poisson(cfg.join_rate * span)))
            if not ids.size:
                return
            self._grow_timers(self._next_id)
            # Fresh random phases from each joiner's arrival instant:
            # (compute, newscast, gossip) per joiner, in joiner order.
            phase = rng.random(3 * ids.size).reshape(-1, 3)
            self._next_compute[ids] = self.now + cfg.compute_period * phase[:, 0]
            self._next_newscast[ids] = self.now + cfg.newscast_period * phase[:, 1]
            self._next_gossip[ids] = self.now + cfg.gossip_period * phase[:, 2]

    # -- cohort phases -------------------------------------------------------------

    def _compute_window(self, w_end: float, rng: np.random.Generator) -> None:
        cfg = self.deployment
        while True:
            live_ids = self.live_ids()
            ids = self._due(live_ids, self._next_compute, w_end)
            if ids.size == 0:
                return
            # Each pass is its own draw epoch: a node firing twice in
            # one (oversized) window must not reuse its uniform block.
            self.cycle = self._draw_epoch
            self._draw_epoch += 1
            self._pso_phase(self._slot_of_id[ids])
            self._advance(self._next_compute, ids, cfg.compute_period, rng)

    def _newscast_window(self, w_end: float, rng: np.random.Generator) -> None:
        cfg = self.deployment
        while True:
            live_ids = self.live_ids()
            ids = self._due(live_ids, self._next_newscast, w_end)
            if ids.size == 0:
                return
            active = ids[self.provider.view_counts(ids) > 0]
            self._newscast_requests += int(active.size)
            if cfg.loss_rate > 0 and active.size:
                # Request-leg loss: a dropped SHUFFLE_REQ means no
                # exchange (the event protocol's degradation mode).
                active = active[rng.random(active.size) >= cfg.loss_rate]
            if active.size:
                before = self.provider.exchanges
                self.provider.begin_cycle(
                    live_ids, self._alive, float(self.now), initiators=active
                )
                self._newscast_replies += self.provider.exchanges - before
            self._advance(self._next_newscast, ids, cfg.newscast_period, rng)

    def _gossip_window(self, w_end: float, rng: np.random.Generator) -> None:
        cfg = self.deployment
        while True:
            live_ids = self.live_ids()
            ids = self._due(live_ids, self._next_gossip, w_end)
            if ids.size == 0:
                return
            self._gossip_phase(ids, rng, cfg.loss_rate)
            self._advance(self._next_gossip, ids, cfg.gossip_period, rng)

    # -- monitoring / stopping ------------------------------------------------------

    def _monitor(self) -> None:
        cfg = self.deployment
        while self._next_monitor <= self.now and not self._stopped:
            t = self._next_monitor
            best = self.global_best()
            evals = self.total_evaluations()
            self.history.append((t, evals, best))
            if self._dyn_tracker is not None:
                self._dyn_tracker.sample(
                    t,
                    self._problem.epoch_at(t),
                    self.current_true_error(),
                )
            if (
                cfg.quality_threshold is not None
                and self.threshold_time is None
                and best <= cfg.quality_threshold
            ):
                self.threshold_time = t
                self.stop("threshold")
                return
            if self.budgets_exhausted():
                self.stop("budget")
                return
            self._next_monitor += cfg.monitor_period

    def message_tally(self) -> MessageTally:
        """Tally in :class:`AsyncRuntime`'s accounting scheme.

        ``newscast_exchanges`` counts shuffle *requests* (like the
        event protocol's ``requests_sent``); ``transport_sent`` is all
        messages — requests, replies and coordination traffic —
        including ones lost in flight or addressed to dead nodes.
        """
        return MessageTally(
            newscast_exchanges=self._newscast_requests,
            coordination_messages=self.messages_sent,
            coordination_adoptions=self.adoptions,
            transport_sent=(
                self._newscast_requests
                + self._newscast_replies
                + self.messages_sent
            ),
            transport_to_dead=(
                self.transport_to_dead + self.provider.failed_exchanges
            ),
        )

    # -- driving ----------------------------------------------------------------------

    def run(self, until: float) -> DeploymentResult:
        """Run until the horizon, the budget, or the quality threshold."""
        if until <= 0:
            raise ValueError("until must be positive")
        cfg = self.deployment
        churning = cfg.crash_rate > 0 or cfg.join_rate > 0
        while not self._stopped and self.now < until:
            if self._dynamic:
                # Window-start epoch sync: shifts land on the first
                # window boundary at/after the period multiple.
                self._sync_epoch()
            w_end = min(self.now + self.window, until)
            rng = self._tree.rng("eventpath", "window", self._window_index)
            if churning:
                self._churn_window(rng, w_end - self.now)
            if self.live_count:
                self._newscast_window(w_end, rng)
                self._compute_window(w_end, rng)
                self._gossip_window(w_end, rng)
            self.now = w_end
            self._window_index += 1
            self._monitor()
        best = self.global_best()
        dynamics_dict, adversary_dict = self.problem_layer_metrics(
            self._dyn_tracker
        )
        return DeploymentResult(
            best_value=best,
            quality=self.function.quality(best),
            total_evaluations=self.total_evaluations(),
            sim_time=float(self.now),
            stop_reason=self._stop_reason if self._stopped else "horizon",
            threshold_time=self.threshold_time,
            messages=self.message_tally(),
            crashes=self.crashes,
            joins=self.joins,
            history=list(self.history),
            dynamics=dynamics_dict,
            adversary=adversary_dict,
        )
