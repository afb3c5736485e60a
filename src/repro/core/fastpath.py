"""Vectorized network-level fast path: all swarms in one SoA kernel.

The reference engine (:class:`~repro.simulator.engine.CycleDrivenEngine`
driving per-node protocol objects) advances the system one node at a
time, so a cycle over ``n`` nodes costs ``O(n)`` Python/numpy call
round-trips regardless of how little arithmetic each node does.  At the
paper's scales (exp2 sweeps up to ``n = 2^16``) that interpreter
overhead — not the arithmetic — dominates the wall clock.

:class:`FastEngine` replaces the per-node object graph with
structure-of-arrays state (:class:`~repro.pso.state.SwarmStateSoA`):
positions/velocities/pbests of shape ``(n, k, d)`` and per-node swarm
optima of shape ``(n, d)`` / ``(n,)``.  One engine cycle is then a
handful of whole-network array operations:

1. **churn** — binomial crash thinning and Poisson joins, drawing from
   the same ``("churn")`` seed-tree stream with the same call sequence
   as :class:`~repro.simulator.churn.ChurnProcess`.  SoA row ``i`` is
   the ``i``-th entry of the live list, so the whole-network sweep
   holds under churn: a crash retires its row's evaluation count and
   swap-removes the row exactly as the live list swap-removes the id
   (the last row and its node generator move into the hole), and a
   cycle's joins append one block of rows,
   built by one batched stream derivation and one initializer call
   (capacity doubling: amortized O(k·d) per join);
2. **topology** — the scenario's overlay advanced by its array-backed
   :class:`~repro.topology.provider.ViewProvider` (vectorized NEWSCAST
   view exchanges, CYCLON shuffles, or static neighborhoods — see
   :mod:`repro.topology.array_views`);
3. **optimization** — one fused velocity/position/clamp update over all
   ``n·k`` particles, one batched objective evaluation over the
   ``(n·k, d)`` reshape, and vectorized pbest/swarm-optimum folds
   (``np.where`` / row ``argmin`` reductions).  In the steady
   whole-network sweep the update and the pbest fold write straight
   into the SoA rows (the kernels read each element before writing
   it), so the particle state exists once, with no second buffer;
4. **coordination** — one anti-entropy exchange per node, its partner
   drawn *from its own overlay view* via the provider.  The exchange
   exists once, as three legs every SoA engine runs (this engine over
   all live nodes, :mod:`repro.core.eventpath` over a timer cohort,
   :mod:`repro.sharding.engine` over an id block):

   * **offer** (:meth:`FastEngine._exchange`) — a message carries the
     sender's optimum *as of send time* (one snapshot per call).  Each
     outgoing payload passes the adversary's per-message tamper (no
     adversary = the identity; a pull request carries no payload, so
     only ``"drop"`` touches it), then the per-message loss draw.
     Partners held by this engine are served by the two legs below;
     the mask of messages whose partner is *not held here* — its id
     has no live SoA row — is returned to the caller, who knows what
     that means: crashed, so sent and lost (``transport_to_dead``:
     fast, event), or owned by another shard, so routed there;
   * **receive** (:meth:`FastEngine._receive`) — snapshots the
     receivers, then folds the offers straight onto the SoA by
     scatter-min (best offer per receiver, adopted iff strictly
     better; the kernel compares before it writes, so output aliases
     comparand).  A push-pull receiver at least as good as the offer,
     or a pulled node that knows anything, answers with its
     *pre-fold* snapshot; a Byzantine answer is tampered when sent;
   * **reply** (:meth:`FastEngine._fold_replies`) — the initiator
     adopts the answer iff strictly better than its *current* value.

   With the plausibility filter on, both receiving legs fold on
   re-evaluated values.  Message, loss and adoption tallies land in
   the returned :class:`~repro.core.metrics.MessageTally` (phased
   adoption counts — at most one per receiver per fold, where the
   reference's sequential delivery can count several — so compare
   them within an engine, not across).

Equivalence contract (pinned by ``tests/core/test_fastpath.py`` and
``tests/topology/test_provider_equivalence.py``)
----------------------------------------------------------------

*Bit-identical*: per-node swarm dynamics.  The network's initial state
is one :func:`~repro.pso.swarm.initial_swarm_soa` call — per node only
its private stream ``("node", nid, "pso")`` and one ``(2, k, d)``
uniform fill, the box and ±vmax maps once over ``(n, k, d)`` — the
initializer the reference swarm and churn joiners run at ``n = 1``.
Those streams, and the draw blocks below, come from one batch
(``SeedSequenceTree.rngs``) equal to ``tree.rng`` called per path.
Whenever a node's per-cycle allowance is a whole synchronous sweep
(``r = k``, the paper's default timing) the batched update consumes
that stream exactly like :meth:`~repro.pso.swarm.Swarm.step_cycle` and
produces the same floating-point trajectory.  Consequently a whole run
is same-seed **trajectory-identical** to the reference engine at
``r = k`` whenever
gossip exchanges cannot reorder information flow mid-cycle: ``n = 1``
under the default NEWSCAST setup, and any ``n`` with gossip disabled
(reference: a peerless topology; fast: ``gossip=False``).  Topology
providers draw from their own ``("topology", ...)`` streams, so the
overlay choice never perturbs node trajectories.

*Statistically equivalent*: everything else.  Overlay dynamics apply a
cycle's exchanges against consistent cycle-start snapshots instead of
the reference's shuffled in-cycle interleaving, and per-particle
(``r ≠ k``) stepping is applied in phased chunks rather than the
asynchronous move-one-evaluate-one loop.  Overlay structure (degree
distributions, clustering, connectivity) and final-quality
distributions match the reference engine's (see the equivalence
tests); individual trajectories do not.

Two RNG regimes drive the per-particle draws (``rng_mode``):

* ``"strict"`` (default) — each node consumes its private
  ``("node", nid, "pso")`` stream exactly like the reference solver:
  the regime under which the bit-identity contract above holds.
* ``"batched"`` — each 256-id block's ``(256, 2, k, d)`` uniform fill
  is one generator call per chunk, seed-branched as ``("fastpath",
  "draws", cycle, chunk, block)``, and a node draws its id's rows of
  it: still only a function of ``(seed, repetition, cycle, chunk,
  node id)`` — reproducible run-to-run and unperturbed by which
  *other* nodes are alive — but no longer the reference engine's bit
  stream.  Statistically equivalent, measurably faster (the per-node
  draw loop was ~40% of the strict cycle; ``benchmarks/BENCH_3.json``),
  and the engine keeps no per-node generator past the initial swarm.

Draws never take a swarm-sized buffer where they need not: a full
sweep whose rows come in whole draw blocks — strict, or batched over
the whole population with no churn holes — fills one 256-row workspace
block and updates its SoA rows before drawing the next.  Gathered
chunks (event cohorts, churned batched sweeps, ``r ≠ k``) draw every
row into one workspace block.

What the fast path intentionally does **not** simulate: message loss /
latency transports — use the event engine when those mechanisms are
the object of study.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import KernelBackend, Workspace, get_backend, grow_rows
from repro.core.metrics import (
    DynamicsObserver,
    DynamicsTracker,
    GlobalQualityObserver,
    MessageTally,
)
from repro.core.runner import RunResult
from repro.functions.base import get_function
from repro.functions.problem import DynamicsSpec, EvalContext, build_problem
from repro.pso.state import SwarmStateSoA
from repro.pso.swarm import initial_swarm_soa
from repro.pso.velocity import resolve_vmax
from repro.simulator.adversary import Adversary, AdversarySpec
from repro.scenario.spec import RNG_MODES
from repro.simulator.observers import StopCondition
from repro.topology.provider import ViewProvider, make_array_provider
from repro.utils.config import ExperimentConfig
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import SeedSequenceTree
from repro.utils.validate import choice

__all__ = ["FastEngine", "run_single_fast"]

#: Batched draws are generated in fixed node-id blocks of this size,
#: each from its own seed branch — per-node-id stable, and O(live)
#: work under churn regardless of how many ids have ever existed.
_DRAW_BLOCK_BITS = 8
_DRAW_BLOCK = 1 << _DRAW_BLOCK_BITS


def _uniform(bound: np.ndarray) -> np.ndarray | float:
    """``bound`` as one float when every coordinate carries the same bits.

    ``np.clip`` against that float is the same ufunc on the same values
    as against the ``(d,)`` row, without a d-long inner loop.
    """
    bits = np.asarray(bound, dtype=np.float64).view(np.int64)
    return float(bits.view(np.float64)[0]) if (bits == bits[0]).all() else bound


class FastEngine:
    """Batched cycle-driven engine over structure-of-arrays swarm state.

    Duck-type compatible with the observer/stop API of
    :class:`~repro.simulator.engine.EngineBase` (``cycle``, ``stop()``,
    ``stopped``, ``stop_reason``, ``observers``), so measurement hooks
    like :class:`~repro.core.metrics.GlobalQualityObserver` and
    :class:`~repro.simulator.observers.StopCondition` run unchanged on
    either engine.

    Parameters
    ----------
    config:
        The experiment point (same object the reference runner takes).
    repetition:
        Seed-tree branch ``("rep", repetition)``, as in
        :meth:`Session.run_one <repro.scenario.session.Session.run_one>`.
    gossip:
        Run the topology and anti-entropy coordination phases.
        ``False`` isolates the nodes — the configuration under which
        fast and reference engines are same-seed trajectory-identical
        for any ``n``.
    topology:
        Name of an array-backed overlay (``"newscast"`` — the paper's
        protocol and the default — ``"cyclon"``, ``"ring"``,
        ``"kregular"``, ``"star"``, or ``"oracle"`` for the idealized
        uniform sampler), or a ready
        :class:`~repro.topology.provider.ViewProvider` instance.
    rng_mode:
        ``"strict"`` or ``"batched"`` per-particle draws (see module
        docstring).
    kernel_backend:
        ``"numpy"`` or a ready :class:`~repro.core.kernels.KernelBackend`
        instance (a subclass that wraps the NumPy kernels, e.g. a
        timing proxy).  All hot kernels (fused update, batched eval,
        gossip reduction, NEWSCAST merge) dispatch through it; see
        :mod:`repro.core.kernels`.
    node_ids:
        Global node ids this engine owns (default: the whole network,
        ``0..config.nodes-1``).  The sharding seam: per-node RNG
        streams, batched draw-block keys and the budget formula all
        use the global ids, so a shard engine over a contiguous id
        block evolves its nodes on exactly the streams the
        whole-network engine would (see :mod:`repro.sharding`).  The
        liveness and id -> row tables still span ``config.nodes`` ids, so a
        gossip partner owned elsewhere reads as *not held here*.
        Subset engines must be churn-free and take a ready
        ``ViewProvider`` (or run ``gossip=False``).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        repetition: int = 0,
        gossip: bool = True,
        topology: str | ViewProvider = "newscast",
        rng_mode: str = "strict",
        kernel_backend: str | KernelBackend = "numpy",
        node_ids: np.ndarray | None = None,
        dynamics: DynamicsSpec | None = None,
        adversary: AdversarySpec | None = None,
    ):
        self.config = config
        self.gossip = gossip
        # Scenario's rule, applied again: an engine may be built from
        # a bare ExperimentConfig, with no Scenario to check it.
        self.rng_mode = choice(*RNG_MODES).apply(rng_mode, "rng_mode", "FastEngine")
        self.backend = get_backend(kernel_backend)
        self.workspace = Workspace()
        tree = SeedSequenceTree(config.seed).subtree("rep", repetition)
        self._tree = tree
        self.function = get_function(config.function)
        vmax = resolve_vmax(self.function, config.pso.vmax_fraction)
        self._vmax = None if vmax is None else _uniform(vmax)
        self._box = (_uniform(self.function.lower), _uniform(self.function.upper))

        # Time-aware objective: a Problem wrapping self.function.  For
        # static scenarios the wrapper is inert and the evaluation hot
        # path passes ctx=None through the kernels — same operations,
        # same bit stream as before the Problem layer existed.
        self._problem = build_problem(self.function, dynamics, tree)
        self._dynamic = self._problem.is_dynamic
        self._objectives = [self._problem if self._dynamic else self.function]
        self._epoch = 0
        self.reevaluations = 0

        if adversary is not None and adversary.enabled:
            self._adversary: Adversary | None = Adversary(
                adversary, config.nodes, tree.rng("adversary")
            )
        else:
            self._adversary = None
        self._defense = self._adversary is not None and adversary.defense

        # ``node_ids`` is the sharding seam: an engine may own any
        # subset of a larger overlay's id space.  Per-node streams and
        # draw-block keys are derived from the *global* ids, so a
        # shard's nodes evolve on exactly the streams the whole-network
        # engine would give them.  Defaults to 0..config.nodes-1 (the
        # whole network, the ordinary case).
        if node_ids is None:
            node_ids = np.arange(config.nodes, dtype=np.int64)
            self._default_ids = True
        else:
            node_ids = np.asarray(node_ids, dtype=np.int64)
            self._default_ids = False
        # Liveness mirror of Network: ``_ids[:live_count]`` is the
        # swap-remove live list (churn victim selection stays
        # order-compatible with the reference) and SoA row i is node
        # ``_ids[i]``; ``_slot_of_id`` maps ids back to rows (-1: not
        # held here).  Node generators are row-aligned too.
        self._initial_size = node_ids.shape[0]
        self._next_id = config.nodes
        self._ids = np.empty(0, dtype=np.int64)
        self._slot_of_id = np.empty(0, dtype=np.int64)
        self._alive = np.empty(0, dtype=bool)
        self._gens: list[np.random.Generator] = []
        self.soa: SwarmStateSoA | None = None
        self._add_rows(node_ids)
        self._retired_evaluations = 0
        self._churn_rng = tree.rng("churn") if config.churn.enabled else None
        self._gossip_rng = tree.rng("fastpath", "gossip")

        if isinstance(topology, ViewProvider):
            self.provider: ViewProvider = topology
            self.provider.ensure_capacity(self._next_id)
        else:
            if not self._default_ids:
                raise ConfigurationError(
                    "named topologies bootstrap the whole id space; an "
                    "engine over an id subset takes a ready ViewProvider "
                    "(the sharding layer owns the overlay)"
                )
            self.provider = make_array_provider(topology, config, tree)
        # Providers that implement the kernel seam route their merge
        # and gather hot paths through the engine's backend/workspace.
        self.provider.attach_kernels(self.backend, self.workspace)

        self.budget = config.evaluations_per_node
        self.cycle: int = 0
        self.now: float = 0.0
        self.observers: list = []
        self._stopped = False
        self._stop_reason: str | None = None

        # Communication tallies (mirroring CoordinationProtocol's).
        self.messages_sent = 0
        self.adoptions = 0
        self.transport_to_dead = 0
        self.crashes = 0
        self.joins = 0

    def _batch_eval(
        self, live: np.ndarray, pos: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Evaluate ``(nl, width, d)`` positions in one batch.

        Static scenarios dispatch with ``ctx=None`` — the pinned
        bit-identical path.  Dynamic scenarios hand the kernels the
        Problem plus the engine's virtual clock.
        """
        ctx = EvalContext(time=self.now, cycle=self.cycle) if self._dynamic else None
        return self.backend.batch_eval(self._objectives, None, live, pos, out=out, ctx=ctx)

    # -- EngineBase-compatible control surface ---------------------------------------

    def stop(self, reason: str = "requested") -> None:
        """Request termination; honored at the next safe point."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stopped(self) -> bool:
        """Whether a stop has been requested."""
        return self._stopped

    @property
    def stop_reason(self) -> str | None:
        """Why the simulation stopped, if it did."""
        return self._stop_reason

    def add_observer(self, observer) -> None:
        """Append an observer (runs after already-registered ones)."""
        self.observers.append(observer)

    # -- liveness -----------------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of currently live nodes (= SoA rows)."""
        return self.soa.n

    def live_ids(self) -> np.ndarray:
        """Live node ids as an index array (live-list order = row order)."""
        return self._ids[: self.soa.n].copy()

    def is_alive(self, node_id: int) -> bool:
        """Liveness check by node id."""
        return 0 <= node_id < self._next_id and bool(self._alive[node_id])

    def crash_node(self, node_id: int) -> None:
        """Externally crash a live node (fault-injection hook)."""
        if not self.is_alive(node_id):
            raise ConfigurationError(f"node {node_id} is not alive")
        self._crash(node_id)

    def _crash(self, nid: int) -> None:
        """Retire ``nid``'s evaluations and swap-remove its row."""
        row, last = int(self._slot_of_id[nid]), self.soa.n - 1
        self._retired_evaluations += int(self.soa.evaluations[row])
        self.soa.swap_remove(row)
        moved = int(self._ids[last])
        self._ids[row] = moved
        self._slot_of_id[moved] = row
        self._slot_of_id[nid] = -1
        self._alive[nid] = False
        if self._gens:
            self._gens[row] = self._gens[last]
            self._gens.pop()
        self.crashes += 1
        self.provider.on_crash(nid)

    def _add_rows(self, ids: np.ndarray) -> None:
        """Append fresh swarms for ``ids``: one stream batch, one initializer call."""
        gens = self._tree.rngs(("node",), ids, ("pso",))
        block = initial_swarm_soa(
            gens, self.config.pso, self.function.lower, self.function.upper
        )
        if self.soa is None:
            self.soa, start = block, 0
        else:
            start = self.soa.n
            self.soa.append(block)
        end = self.soa.n
        self._ids = grow_rows(self._ids, end, -1)
        self._ids[start:end] = ids
        self._slot_of_id = grow_rows(self._slot_of_id, self._next_id, -1)
        self._slot_of_id[ids] = np.arange(start, end)
        self._alive = grow_rows(self._alive, self._next_id, False)
        self._alive[ids] = True
        if self.rng_mode == "strict":  # batched engines never read them again
            self._gens.extend(gens)

    def _join(self, count: int) -> np.ndarray:
        """Add ``count`` fresh nodes as one block of rows; returns their ids.

        The overlay still bootstraps one joiner at a time, each against
        the live list up to and including itself.
        """
        first = self._next_id
        ids = np.arange(first, first + count, dtype=np.int64)
        if count == 0:
            return ids
        self._next_id += count
        self._add_rows(ids)
        self.joins += count
        self.provider.ensure_capacity(self._next_id)
        first_row = self.soa.n - count
        for j, nid in enumerate(ids.tolist()):
            self.provider.on_join(nid, self._ids[: first_row + j + 1], float(self.now))
        return ids

    # -- oracle metrics (GlobalQualityObserver hooks) -----------------------------------

    def global_best(self) -> float:
        """Best objective value known by any live node (inf if none yet)."""
        vals = self.soa.best_values
        finite = vals[np.isfinite(vals)]
        return float(finite.min()) if finite.size else float("inf")

    def total_evaluations(self) -> int:
        """Function evaluations summed over all nodes (incl. crashed)."""
        return int(self.soa.evaluations.sum()) + self._retired_evaluations

    def budgets_exhausted(self) -> bool:
        """Whether every live node has spent its local budget."""
        if self.budget is None:
            return False
        return bool(np.all(self.soa.evaluations >= self.budget))

    def node_best_spread(self) -> float:
        """Max − min of live nodes' best values (consensus distance)."""
        vals = self.soa.best_values
        finite = vals[np.isfinite(vals)]
        if finite.size == 0:
            return float("inf")
        return float(finite.max() - finite.min())

    def message_tally(self) -> MessageTally:
        """Communication tally in the reference engine's schema.

        ``newscast_exchanges`` counts the overlay provider's view
        exchanges/shuffles (0 for static and oracle overlays).
        Message counts follow the reference protocol's send rules —
        including sends to dead peers, which also land in
        ``transport_to_dead``; adoption counts use the phased
        semantics of the module docstring's step 4 and run slightly
        below the reference's sequential counting.
        """
        return MessageTally(
            newscast_exchanges=int(getattr(self.provider, "exchanges", 0)),
            coordination_messages=self.messages_sent,
            coordination_adoptions=self.adoptions,
            transport_sent=self.messages_sent,
            transport_to_dead=self.transport_to_dead,
        )

    # -- time-aware landscape (epoch sync + stale-best refresh) -------------------

    def _sync_epoch(self) -> None:
        """Advance the landscape epoch; refresh stale bests on a change."""
        epoch = self._problem.epoch_at(self.now)
        if epoch != self._epoch:
            self._epoch = epoch
            self.refresh_stale_bests()

    def refresh_stale_bests(self) -> int:
        """Re-evaluate every live node's bests under the current landscape.

        On a shift event the remembered pbest/incumbent *values* are
        measurements of a landscape that no longer exists; positions
        are kept, values are re-evaluated, and node incumbents re-fold
        against the refreshed pbests (a pbest may now beat a stale
        injected optimum).  Never-evaluated particles (pbest = inf)
        stay invalid so first-visit move semantics hold.  Returns the
        number of re-evaluations (tracked in ``reevaluations``, never
        charged to the optimization budget).
        """
        soa = self.soa
        nl, k, d = soa.n, soa.k, soa.d
        if nl == 0:
            return 0
        ctx = EvalContext(time=self.now, cycle=self.cycle)
        pbv = self._problem.batch_at(soa.pbest_positions.reshape(-1, d), ctx)
        finite = np.isfinite(soa.pbest_values)
        soa.pbest_values = np.where(finite, pbv.reshape(nl, k), np.inf)
        count = int(finite.sum())
        bv = self._problem.batch_at(soa.best_positions, ctx)
        bfin = np.isfinite(soa.best_values)
        new_best = np.where(bfin, bv, np.inf)
        count += int(bfin.sum())
        # Re-fold: under the new landscape a pbest may beat the incumbent.
        refreshed = soa.pbest_values
        arg = np.argmin(refreshed, axis=1)
        cand = refreshed[np.arange(nl), arg]
        better = cand < new_best
        soa.best_values = np.where(better, cand, new_best)
        if np.any(better):
            win = np.nonzero(better)[0]
            soa.best_positions[win] = soa.pbest_positions[win, arg[win]]
        self.reevaluations += count
        return count

    def _verify_values(self, positions: np.ndarray) -> np.ndarray:
        """Oracle re-evaluation of claimed positions (plausibility filter)."""
        return self._problem.batch_at(
            positions, EvalContext(time=self.now, cycle=self.cycle)
        )

    def current_true_error(self) -> float:
        """True error of the best *position* any live node believes in.

        Re-evaluates incumbents under the landscape as of now — immune
        to both stale values (dynamics) and fabricated values
        (Byzantine false bests), which is what the dynamic/robustness
        metrics measure.
        """
        mask = np.isfinite(self.soa.best_values)
        if not mask.any():
            return float("inf")
        verified = self._verify_values(self.soa.best_positions[mask])
        return max(0.0, float(verified.min()) - self._problem.optimum_value)

    def problem_layer_metrics(
        self, tracker: DynamicsTracker | None
    ) -> tuple[dict | None, dict | None]:
        """A record's ``(dynamics, adversary)`` dicts (``None``: static / honest)."""
        dynamics = adversary = None
        if tracker is not None:
            dynamics = tracker.metrics(final_error=self.current_true_error())
            dynamics["reevaluations"] = int(self.reevaluations)
        if self._adversary is not None:
            adversary = self._adversary.tally_dict()
            adversary["final_true_error"] = self.current_true_error()
        return dynamics, adversary

    # -- cycle phases ------------------------------------------------------------

    def _churn_phase(self) -> None:
        """Crash/join process, draw-for-draw like ChurnProcess.step."""
        cfg = self.config.churn
        rng = self._churn_rng
        if cfg.crash_rate > 0:
            n_live = self.live_count
            headroom = max(0, n_live - cfg.min_population)
            if headroom > 0:
                n_crash = int(rng.binomial(n_live, cfg.crash_rate))
                n_crash = min(n_crash, headroom)
                if n_crash > 0:
                    victims = rng.choice(n_live, size=n_crash, replace=False)
                    # Indices into the live list as it stood before the crashes.
                    for nid in self._ids[victims].tolist():
                        self._crash(nid)
        if cfg.join_rate > 0:
            self._join(int(rng.poisson(cfg.join_rate * self._initial_size)))

    def _pso_phase(self, live: np.ndarray) -> None:
        """Spend every live node's per-cycle evaluation allowance.

        ``live`` holds SoA rows.  The allowance ``min(r, remaining
        budget)`` is consumed in chunks that visit each particle at
        most once, so each chunk is one fused move + one batched
        evaluation + one fold.  At ``r = k`` (cursors at 0) a cycle is
        exactly one chunk and the per-node arithmetic/stream
        consumption matches :meth:`~repro.pso.swarm.Swarm.step_cycle`
        bit-for-bit under strict RNG.
        """
        soa = self.soa
        k = soa.k
        r = self.config.gossip_cycle
        if self.budget is None:
            allowance = np.full(live.shape[0], r, dtype=np.int64)
        else:
            allowance = np.minimum(r, self.budget - soa.evaluations[live])
            np.maximum(allowance, 0, out=allowance)
        done = np.zeros_like(allowance)
        chunk = 0
        while True:
            remaining = allowance - done
            width = int(min(k, remaining.max(initial=0)))
            if width <= 0:
                break
            self._chunk_step(live, remaining, width, chunk)
            done += np.minimum(remaining, width)
            chunk += 1

    def _chunk_draws(
        self, live: np.ndarray, moving: np.ndarray | None, width: int,
        chunk: int, stream: bool = False,
    ):
        """Yield ``(rows, draws)``: the uniform rows of SoA rows ``live[rows]``.

        ``draws`` is a ``(·, 2, width, d)`` workspace block valid until
        the next: 256 rows when ``stream``, else every row.  ``moving``
        masks the rows whose node moves (``None``: all).  Strict fills
        each moving row from its node's generator and zeroes the rest
        (discarded, but must stay finite).  Batched picks rows out of
        the id blocks they touch (work proportional to those, however
        many ids churn retired); a streamed sweep has node id ``i`` in
        row ``i``, so each block is one whole fill (in C order: a short
        last block holds its leading rows).  SFC64 fills about twice as
        fast as PCG64; this stream owes bit-compatibility to nothing.
        """
        nl, d, ws = live.shape[0], self.soa.d, self.workspace
        step = _DRAW_BLOCK if stream else max(nl, 1)
        if self.rng_mode == "batched":
            ids = self._ids[live]
            blocks = np.flatnonzero(np.bincount(ids >> _DRAW_BLOCK_BITS))
            key = ("fastpath", "draws", self.cycle, chunk)
            gens = self._tree.rngs(key, blocks, bit_generator=np.random.SFC64)
        for lo in range(0, nl, step):
            rows = slice(lo, lo + step)
            out = ws.take("draws", (min(step, nl - lo), 2, width, d))
            if self.rng_mode == "strict":
                nodes = live[rows]
                if moving is not None:
                    nodes = np.where(moving[rows], nodes, -1)
                    out[nodes < 0] = 0.0
                for j, row in enumerate(nodes.tolist()):
                    if row >= 0:
                        self._gens[row].random(out=out[j])
            elif stream:
                gens[lo >> _DRAW_BLOCK_BITS].random(out=out)
            else:
                # Each id block's rows, found once: a run of the ids when
                # they ascend, picked straight into place; else a run of
                # one stable sort (churn swaps rows), picked through
                # scratch (not a temporary per block) and scattered.
                order = None if np.all(ids[1:] > ids[:-1]) else np.argsort(ids, kind="stable")
                by_id = ids if order is None else ids[order]
                edges = np.searchsorted(by_id, blocks << _DRAW_BLOCK_BITS).tolist() + [nl]
                fill = ws.take("draw_block", (_DRAW_BLOCK, 2, width, d))
                if order is not None:
                    pick = ws.take("draw_pick", (_DRAW_BLOCK, 2, width, d))
                for a, b, gen in zip(edges, edges[1:], gens):
                    gen.random(out=fill)
                    into = out[a:b] if order is None else pick[: b - a]
                    np.take(fill, by_id[a:b] & (_DRAW_BLOCK - 1), axis=0,
                            out=into, mode="clip")
                    if order is not None:
                        out[order[a:b]] = into
            yield rows, out

    def _chunk_step(
        self, live: np.ndarray, remaining: np.ndarray, width: int, chunk: int = 0
    ) -> None:
        """Advance up to ``width`` round-robin particles on every live node."""
        soa = self.soa
        cfg = self.config.pso
        k = soa.k
        nl = live.shape[0]
        cursors = soa.cursors[live]

        # A synchronous sweep (r = k timing, cursors at 0) moves whole
        # rows: over the whole population — live churned or not, since
        # row i is the i-th live node — the SoA rows themselves, no
        # gather/scatter at all; over a cohort one row gather.  Only
        # r ≠ k chunks gather (row, column) pairs.
        whole_rows = width == k and not cursors.any()
        full_sweep = (
            whole_rows and nl == soa.n and bool(np.all(live == np.arange(nl)))
        )
        if full_sweep:
            index = slice(None)
        elif whole_rows:
            index = live
        else:
            index = (
                live[:, None], (cursors[:, None] + np.arange(width)[None, :]) % k
            )
        sub_pos = soa.positions[index]
        sub_vel = soa.velocities[index]
        sub_pb = soa.pbest_positions[index]
        sub_pbv = soa.pbest_values[index]

        all_in = bool(remaining.size) and bool(remaining.min() >= width)
        participating = (
            None if all_in else np.arange(width)[None, :] < remaining[:, None]
        )
        finite = np.isfinite(sub_pbv)
        if all_in and finite.all():
            move = moving = None  # steady state: every particle moves
        else:
            move = finite if all_in else (participating & finite)
            moving = move.any(axis=1)

        # A full sweep updates the SoA rows in place (the kernels read
        # each element before writing it), a gathered chunk (cohorts,
        # r ≠ k) its gathered copies, scattered back below; scratch and
        # draws come from the workspace, so a settled cycle, churned or
        # not, allocates no large arrays (tests/core/test_fastpath_alloc.py).
        # Frozen particles (a joiner's first chunk, a spent budget) are
        # held aside and written back.
        ws, backend = self.workspace, self.backend
        moved = moving is None or bool(moving.any())
        if moved:
            gbest = (
                soa.best_positions if full_sweep else soa.best_positions[live]
            )[:, None, :]
            lower, upper = self._box if cfg.clamp_positions else (None, None)
            if move is not None:
                frozen = np.nonzero(~move)
                held = sub_pos[frozen], sub_vel[frozen]
            # Per-node draws in the same (r1 block, r2 block) order as
            # Swarm.step_cycle.  They stream per 256-row block when they
            # come in whole blocks: strict rows always, batched rows when
            # row i is node id i (the whole population, no churn holes).
            stream = full_sweep and (self.rng_mode == "strict" or (
                self.crashes == 0 and self._default_ids and nl == self._next_id
            ))
            operands = [(a, np.ndim(a) == 3) for a in
                        (sub_pos, sub_vel, sub_pb, gbest, self._vmax, lower, upper)]
            for rows, draws in self._chunk_draws(live, moving, width, chunk, stream):
                pos, vel, pb, gb, vm, lo, up = (
                    a[rows] if per_row else a for a, per_row in operands
                )
                backend.fused_pso_update(
                    pos, vel, pb, gb, draws[:, 0], draws[:, 1],
                    cfg.inertia, cfg.c1, cfg.c2, vmax=vm, lower=lo, upper=up,
                    out_vel=vel, out_pos=pos, ws=ws,
                )
            if move is not None:
                sub_pos[frozen], sub_vel[frozen] = held

        values = self._batch_eval(live, sub_pos, out=ws.take("sweep_val", (nl, width)))
        backend.pbest_fold(
            values, sub_pbv, sub_pb, sub_pos, participating,
            out_pbv=sub_pbv, out_pb=sub_pb, ws=ws,
        )
        if not full_sweep:
            if moved:
                soa.positions[index] = sub_pos
                soa.velocities[index] = sub_vel
            soa.pbest_positions[index] = sub_pb
            soa.pbest_values[index] = sub_pbv
        if participating is None:
            soa.evaluations[live] += width
        else:
            soa.evaluations[live] += participating.sum(axis=1)
        soa.cursors[live] = (cursors + np.minimum(remaining, width)) % k

        # Swarm-optimum fold: first-index argmin over the chunk, adopt
        # iff strictly better — step_cycle's exact rule.
        best_j = np.argmin(sub_pbv, axis=1)
        idx = np.arange(nl)
        cand_val = sub_pbv[idx, best_j]
        better = cand_val < soa.best_values[live]
        if np.any(better):
            winners = live[better]
            soa.best_values[winners] = cand_val[better]
            soa.best_positions[winners] = sub_pb[idx[better], best_j[better]]

    def _gossip_phase(
        self, ids: np.ndarray, rng: np.random.Generator, loss_rate: float = 0.0
    ) -> None:
        """One anti-entropy exchange per node of ``ids`` (module docstring, step 4)."""
        peers = self.provider.gossip_targets(ids, rng)
        away, _, _ = self._exchange(ids, peers, rng, loss_rate)
        # Every node of the network lives in this engine's SoA, so a
        # partner not held here has crashed: sent and lost, exactly
        # like the reference transport.
        self.transport_to_dead += int(away.sum())

    def _exchange(
        self,
        ids: np.ndarray,
        peers: np.ndarray,
        rng: np.random.Generator | None = None,
        loss_rate: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Offer leg: node ``ids[i]`` opens an exchange with ``peers[i]`` (``-1`` = nobody).

        Exchanges whose partner this engine holds are completed here
        (:meth:`_receive`, :meth:`_fold_replies`).  Returns ``(away,
        send_val, send_pos)``: the mask of messages that left for a
        partner not held here, and the payloads as sent.  ``rng`` is
        read only when ``loss_rate > 0`` (one draw per message leg).
        """
        known = peers >= 0
        if not np.any(known):
            return known, None, None
        soa, ws, adv = self.soa, self.workspace, self._adversary
        mode = self.config.coordination.mode
        lower, upper = self.function.lower, self.function.upper
        m = ids.shape[0]
        peers_safe = np.maximum(peers, 0)
        held = known & self._alive[peers_safe]
        slots = self._slot_of_id[ids]
        # Send-time snapshots (np.take with out= gathers without a temporary).
        val = ws.take("gp_val", (m,))
        np.take(soa.best_values, slots, out=val, mode="clip")
        pos = ws.take("gp_posm", (m, soa.d))
        np.take(soa.best_positions, slots, axis=0, out=pos, mode="clip")

        def survives(mask: np.ndarray) -> np.ndarray:
            if loss_rate <= 0:
                return mask
            return mask & (rng.random(m) >= loss_rate)

        send_val, send_pos, sendable = val, pos, True
        if adv is not None and (mode != "pull" or adv.spec.behavior == "drop"):
            # A pull request carries no offer: only "drop" silences it.
            send_val, send_pos, sendable = adv.tamper(ids, val, pos, lower, upper)
        attempted = known & sendable
        if mode != "pull":
            attempted &= np.isfinite(send_val)  # nothing to offer yet
        self.messages_sent += int(attempted.sum())
        carried = survives(attempted)
        answers, r_val, r_pos = self._receive(
            self._slot_of_id[peers_safe], np.nonzero(carried & held)[0],
            None if mode == "pull" else send_val, send_pos,
        )
        if mode != "push":
            rows = np.nonzero(survives(answers))[0]
            if rows.size:
                r_val, r_pos = r_val[rows], r_pos[rows]
                if adv is not None:
                    r_val, r_pos, sent = adv.tamper(
                        peers[rows], r_val, r_pos, lower, upper
                    )
                    rows, r_val, r_pos = rows[sent], r_val[sent], r_pos[sent]
                self._fold_replies(slots[rows], r_val, r_pos)
        return carried & ~held, send_val, send_pos

    def _receive(
        self,
        slots: np.ndarray,
        senders: np.ndarray,
        off_val: np.ndarray | None,
        off_pos: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Receive leg: message rows ``senders`` arrive at SoA rows ``slots``.

        ``off_val`` / ``off_pos`` are the offers per message row
        (``None``: pull requests carry none).  Returns ``(answers,
        val, pos)``: the mask of rows that are answered — each answer
        is counted as sent — and every row's receiver as the message
        found it, which is what an answer carries (push: nobody
        answers, nothing is snapshotted).
        """
        soa, ws = self.soa, self.workspace
        mode = self.config.coordination.mode
        m = slots.shape[0]
        answers = np.zeros(m, dtype=bool)
        val = pos = None
        if mode != "push":
            val = ws.take("gp_pval", (m,))
            np.take(soa.best_values, slots, out=val, mode="clip")
            pos = ws.take("gp_ppos", (m, soa.d))
            np.take(soa.best_positions, slots, axis=0, out=pos, mode="clip")
            answers[senders] = True
            answers &= np.isfinite(val)
        if off_val is not None:
            if self._defense and senders.size:
                # Plausibility filter: fabricated claims die on arrival.
                off_val = off_val.copy()
                off_val[senders] = self._screened(
                    off_val[senders], off_pos[senders]
                )
            self.adoptions += self.backend.scatter_min_fold(
                senders, slots, off_val, off_pos,
                soa.best_values, soa.best_values, soa.best_positions,
            )
            if mode == "push-pull":  # only a receiver at least as good answers
                answers &= off_val >= val
        self.messages_sent += int(answers.sum())
        return answers, val, pos

    def _fold_replies(
        self, slots: np.ndarray, r_val: np.ndarray, r_pos: np.ndarray
    ) -> None:
        """Reply leg: SoA rows ``slots`` (distinct) adopt their answer iff strictly better."""
        soa = self.soa
        if self._defense and r_val.size:
            r_val = self._screened(r_val, r_pos)
        better = r_val < soa.best_values[slots]
        if np.any(better):
            win = slots[better]
            soa.best_values[win] = r_val[better]
            soa.best_positions[win] = r_pos[better]
            self.adoptions += int(better.sum())

    def _screened(self, claimed: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Plausibility filter: the re-evaluated values receivers fold on."""
        verified = self._verify_values(positions)
        self._adversary.screen_batch(claimed, verified)
        return verified

    # -- driving -----------------------------------------------------------------

    def run_one_cycle(self) -> bool:
        """Run one cycle; returns False if aborted before completion."""
        if self._dynamic:
            self._sync_epoch()
        if self.config.churn.enabled:
            self._churn_phase()
        live_ids = self.live_ids()
        if live_ids.size:
            if self.gossip:
                # Topology service first, like the reference stack.
                self.provider.begin_cycle(live_ids, self._alive, float(self.now))
            self._pso_phase(np.arange(live_ids.size))
            if self.gossip and live_ids.size > 1:
                self._gossip_phase(live_ids, self._gossip_rng)
        if self._stopped:
            return False
        self.cycle += 1
        self.now = float(self.cycle)
        for obs in self.observers:
            obs.observe(self)
            if self._stopped:
                break
        return True

    def run(self, cycles: int) -> int:
        """Execute up to ``cycles`` cycles; returns cycles completed."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        executed = 0
        for _ in range(cycles):
            if self._stopped:
                break
            if not self.live_count:
                self.stop("population extinct")
                break
            if self.run_one_cycle():
                executed += 1
        return executed


def run_single_fast(
    config: ExperimentConfig,
    repetition: int = 0,
    record_history: bool = False,
    gossip: bool = True,
    extra_observers=(),
    max_cycles: int | None = None,
    topology: str | ViewProvider = "newscast",
    rng_mode: str = "strict",
    kernel_backend: str | KernelBackend = "numpy",
    dynamics: DynamicsSpec | None = None,
    adversary: AdversarySpec | None = None,
) -> RunResult:
    """Fast-path counterpart of the reference single-repetition runner.

    Same contract and :class:`~repro.core.runner.RunResult` schema; see
    the module docstring for the equivalence guarantees.  Reached via
    ``Scenario(engine="fast")`` through the session facade in normal
    use; ``topology`` selects the array-backed overlay, ``rng_mode``
    the draw regime, and ``kernel_backend`` the kernel instance the hot
    paths dispatch through (see :class:`FastEngine`).
    """
    if config.evaluations_per_node < 1:
        raise ConfigurationError(
            f"budget e={config.total_evaluations} gives node budget "
            f"{config.evaluations_per_node} < 1 for n={config.nodes}"
        )
    engine = FastEngine(
        config,
        repetition=repetition,
        gossip=gossip,
        topology=topology,
        rng_mode=rng_mode,
        kernel_backend=kernel_backend,
        dynamics=dynamics,
        adversary=adversary,
    )
    quality_obs = GlobalQualityObserver(
        threshold=config.quality_threshold, record_history=record_history
    )
    budget_stop = StopCondition(
        lambda eng: eng.budgets_exhausted(), reason="budget"
    )
    dyn_tracker = None
    observers = []
    if engine._problem.is_dynamic:
        # Ordered first: the observer loop breaks on stop, and the last
        # cycle's sample must land even when the budget trips.
        dyn_tracker = DynamicsTracker()
        observers.append(DynamicsObserver(engine._problem, dyn_tracker))
    observers += [quality_obs, budget_stop, *extra_observers]
    engine.observers = observers

    if max_cycles is None:
        # Same safety cap as the reference runner.
        from repro.core.runner import default_max_cycles

        max_cycles = default_max_cycles(config)
    engine.run(max_cycles)

    stop_reason = engine.stop_reason or "cycle cap"
    best = quality_obs.best_value
    quality = engine.function.quality(best)

    threshold_local = None
    if quality_obs.threshold_cycle is not None:
        threshold_local = quality_obs.threshold_cycle * config.gossip_cycle

    dynamics_dict, adversary_dict = engine.problem_layer_metrics(dyn_tracker)

    return RunResult(
        best_value=best,
        quality=quality,
        total_evaluations=engine.total_evaluations(),
        cycles=engine.cycle,
        stop_reason=stop_reason,
        threshold_local_time=threshold_local,
        threshold_total_evaluations=quality_obs.threshold_evaluations,
        messages=engine.message_tally(),
        node_best_spread=engine.node_best_spread(),
        history=list(quality_obs.history),
        crashes=engine.crashes,
        joins=engine.joins,
        dynamics=dynamics_dict,
        adversary=adversary_dict,
    )
