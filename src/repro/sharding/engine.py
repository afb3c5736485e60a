"""The per-shard driver: SoA PSO locally, gossip split at the boundary.

A :class:`ShardEngine` owns one id block of the overlay.  Optimization
runs on a churn-free :class:`~repro.core.fastpath.FastEngine` over the
block (the ``node_ids`` seam keys every per-node stream by *global*
id, so a shard's particles consume exactly the draws the whole-network
engine would give them).  Gossip is that engine's one anti-entropy
exchange (:mod:`repro.core.fastpath`, step 4) run on the block: a
partner *not held here* lives on another shard, so its offer (push
modes) or blind request (pull) is routed there, received at the next
barrier leg and answered one leg later still.  Remote gossip thus
settles with one-window latency — values are monotone (adopt iff
strictly better), so the delay costs freshness, never correctness.

Every cycle is one *window* of three message legs:

1. ``begin_cycle``  — view exchanges + PSO + local gossip; posts
   boundary-view requests and remote offers/requests;
2. ``exchange_apply`` — serves peers' view requests and folds their
   gossip traffic; posts the replies;
3. ``finalize_cycle`` — folds replies, advances the cycle, posts a
   status summary (local best / evaluations / budget state).

After leg 3 every shard holds every peer's status and derives the
*same* stop decision (threshold, budget, cycle cap) from the same
numbers — no coordinator vote, no extra round trip.
:func:`run_shard` is the loop around these legs; every worker process
executes it, over pipes or over a spool, so the two fabrics run
identical code and produce bit-identical overlays.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.fastpath import FastEngine
from repro.core.kernels import KernelBackend
from repro.core.metrics import QualitySample
from repro.sharding.plan import ShardPlan
from repro.sharding.views import make_shard_views
from repro.topology.array_views import OracleViews
from repro.utils.config import ExperimentConfig
from repro.utils.rng import SeedSequenceTree

__all__ = ["ShardEngine", "run_shard"]


def _parts(incoming, key):
    """Sources of ``incoming`` that carry a non-empty ``key`` array."""
    return {
        src: payload
        for src, payload in incoming.items()
        if key in payload and payload[key].size
    }


class ShardEngine:
    """One shard of a sharded single-overlay run (see module docstring)."""

    def __init__(
        self,
        config: ExperimentConfig,
        repetition: int,
        plan: ShardPlan,
        shard: int,
        *,
        topology: str = "newscast",
        rng_mode: str = "strict",
        kernel_backend: str | KernelBackend = "numpy",
        record_history: bool = False,
    ):
        self._modules = set(sys.modules)
        self.plan = plan
        self.shard = shard
        self.peers = [s for s in range(plan.shards) if s != shard]
        self.lo, self.hi = plan.block(shard)
        self.m = self.hi - self.lo
        self.gids = plan.ids_of(shard)
        self.mode = config.coordination.mode
        self.threshold = config.quality_threshold
        self.record_history = record_history

        # The PSO substrate: gossip disabled (this class owns it), an
        # inert provider (the shard's overlay slice lives in
        # ``self.views``), global-id streams via ``node_ids``.
        self.fast = FastEngine(
            config,
            repetition=repetition,
            gossip=False,
            topology=OracleViews(),
            rng_mode=rng_mode,
            kernel_backend=kernel_backend,
            node_ids=self.gids,
        )
        tree = SeedSequenceTree(config.seed).subtree("rep", repetition)
        self.views = make_shard_views(
            topology, plan, shard, config.newscast.view_size,
            tree.rng("topology", topology, "shard", shard),
        )
        self.gossip_rng = tree.rng("fastpath", "gossip", "shard", shard)

        self.cycle = 0
        self.best_value = float("inf")
        self.history: list[QualitySample] = []
        self.threshold_cycle: int | None = None
        self.threshold_evaluations: int | None = None
        self._stopped = False
        self._stop_reason: str | None = None
        self._t0 = time.perf_counter()

    # -- control ---------------------------------------------------------------

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self, reason: str) -> None:
        if not self._stopped:
            self._stopped = True
            self._stop_reason = reason

    # -- leg 1 -----------------------------------------------------------------

    def begin_cycle(self) -> dict[int, dict[str, np.ndarray]]:
        """Views + PSO + local gossip; returns outgoing leg-1 payloads."""
        out = self.views.begin_cycle(self.cycle)
        self.fast._pso_phase(np.arange(self.m, dtype=np.int64))
        for dst, payload in self._gossip_local().items():
            out.setdefault(dst, {}).update(payload)
        return out

    def _gossip_local(self) -> dict[int, dict[str, np.ndarray]]:
        """Exchange with local partners; route what leaves the shard."""
        if self.plan.nodes < 2 or self.m == 0:
            return {}
        peers = self.views.gossip_targets(self.gossip_rng)
        away, val, pos = self.fast._exchange(self.gids, peers)
        if not np.any(away):
            return {}
        kind = "pq" if self.mode == "pull" else "go"
        payload = {f"{kind}_init": self.gids[away], f"{kind}_tgt": peers[away]}
        if kind == "go":
            payload.update(go_val=val[away], go_pos=pos[away])
        return self._route(peers[away], payload)

    def _route(self, targets: np.ndarray,
               payload: dict[str, np.ndarray]) -> dict[int, dict]:
        """Split a flat payload by the owning shard of ``targets``."""
        return {
            dst: {key: arr[sel] for key, arr in payload.items()}
            for dst, sel in self.plan.by_owner(targets)
        }

    # -- leg 2 -----------------------------------------------------------------

    def exchange_apply(
        self, incoming: dict[int, dict[str, np.ndarray]]
    ) -> dict[int, dict[str, np.ndarray]]:
        """Serve peers' view requests and gossip traffic; emit replies."""
        replies = self.views.apply_requests(_parts(incoming, "vq_tgt"))
        for dst, payload in self._gossip_remote(incoming).items():
            replies.setdefault(dst, {}).update(payload)
        return replies

    def _gossip_remote(
        self, incoming: dict[int, dict[str, np.ndarray]]
    ) -> dict[int, dict[str, np.ndarray]]:
        """Receive peers' offers / requests; answers go back by source."""
        kind = "pq" if self.mode == "pull" else "go"
        parts = _parts(incoming, f"{kind}_tgt")
        srcs = sorted(parts)
        if not srcs:
            return {}

        def cat(key: str) -> np.ndarray:
            return np.concatenate([parts[s][key] for s in srcs])

        init, tgt = cat(f"{kind}_init"), cat(f"{kind}_tgt")
        src_of = np.repeat(srcs, [parts[s][f"{kind}_tgt"].shape[0] for s in srcs])
        offers = (None, None) if kind == "pq" else (cat("go_val"), cat("go_pos"))
        answers, val, pos = self.fast._receive(
            tgt - self.lo, np.arange(tgt.shape[0]), *offers
        )
        out: dict[int, dict[str, np.ndarray]] = {}
        for s in srcs:
            sel = answers & (src_of == s)
            if np.any(sel):
                out[s] = {
                    "gr_init": init[sel],
                    "gr_val": val[sel],
                    "gr_pos": pos[sel],
                }
        return out

    # -- leg 3 -----------------------------------------------------------------

    def finalize_cycle(
        self, incoming: dict[int, dict[str, np.ndarray]]
    ) -> dict[str, np.ndarray]:
        """Fold replies, advance the clock, emit the status summary."""
        self.views.apply_replies(_parts(incoming, "vr_init"))
        replies = _parts(incoming, "gr_init")
        srcs = sorted(replies)
        if srcs:
            # At most one remote exchange per initiator per cycle, so
            # reply rows are distinct, as the reply leg requires.
            init, gval, gpos = (
                np.concatenate([replies[s][key] for s in srcs])
                for key in ("gr_init", "gr_val", "gr_pos")
            )
            self.fast._fold_replies(init - self.lo, gval, gpos)
        self.cycle += 1
        self.fast.cycle = self.cycle
        self.fast.now = float(self.cycle)
        return {
            "st_best": np.float64(self.fast.global_best()),
            "st_evals": np.int64(self.fast.total_evaluations()),
            "st_exhausted": np.bool_(self.fast.budgets_exhausted()),
        }

    def resolve(self, statuses: dict[int, dict[str, np.ndarray]]) -> None:
        """Derive the cycle's global stop decision from all statuses.

        Every shard evaluates the same pure function of the same
        numbers, so all shards stop together without a coordinator.
        Mirrors the single-process observer order: threshold first,
        then budget (``run_one_cycle`` breaks its observer loop on the
        first stop).
        """
        best = min(float(p["st_best"]) for p in statuses.values())
        evals = sum(int(p["st_evals"]) for p in statuses.values())
        if best < self.best_value:
            self.best_value = best
        if self.record_history:
            self.history.append(
                QualitySample(self.cycle, evals, self.best_value)
            )
        if (
            self.threshold is not None
            and self.threshold_cycle is None
            and self.best_value <= self.threshold
        ):
            self.threshold_cycle = self.cycle
            self.threshold_evaluations = evals
            self.stop("threshold")
        elif all(bool(p["st_exhausted"]) for p in statuses.values()):
            self.stop("budget")

    # -- harvest ---------------------------------------------------------------

    def result_fragment(self) -> dict:
        """JSON-able summary a coordinator assembles into a RunResult."""
        vals = self.fast.soa.best_values
        finite = vals[np.isfinite(vals)]
        elapsed = time.perf_counter() - self._t0
        return {
            "shard": self.shard,
            "nodes": self.m,
            "cycles": self.cycle,
            "stop_reason": self._stop_reason or "cycle cap",
            "best_value": float(self.best_value),
            "evaluations": int(self.fast.total_evaluations()),
            "threshold_cycle": self.threshold_cycle,
            "threshold_evaluations": self.threshold_evaluations,
            "spread_lo": float(finite.min()) if finite.size else None,
            "spread_hi": float(finite.max()) if finite.size else None,
            "messages_sent": int(self.fast.messages_sent),
            "adoptions": int(self.fast.adoptions),
            "exchanges": int(self.views.exchanges),
            "history": [
                [s.cycle, s.evaluations, s.best_value] for s in self.history
            ],
            "elapsed": elapsed,
            "node_cycles_per_second": (
                self.m * self.cycle / elapsed if elapsed > 0 else 0.0
            ),
            # Modules first loaded while this shard was built and run:
            # a forked worker that imports one pays for it every run.
            "imports": sorted(set(sys.modules) - self._modules),
        }


def run_shard(engine: ShardEngine, exchange, max_cycles: int,
              fault_hook=None) -> dict:
    """Drive one shard to completion over an exchange; return its fragment.

    The single loop body both fabrics execute.  ``fault_hook(cycle)``
    is the chaos-injection seam (the worker entry point arms it from
    the environment); it runs before the window's first post, so a
    killed worker leaves the window incomplete and, over a spool, the
    respawn replays it.
    """
    me = engine.shard
    peers = engine.peers
    try:
        while not engine.stopped and engine.cycle < max_cycles:
            window = engine.cycle
            if fault_hook is not None:
                fault_hook(window)
            out = engine.begin_cycle()
            for dst in peers:
                exchange.post(window, 1, me, dst, out.get(dst, {}))
            out = engine.exchange_apply(
                exchange.collect(window, 1, me, peers)
            )
            for dst in peers:
                exchange.post(window, 2, me, dst, out.get(dst, {}))
            status = engine.finalize_cycle(
                exchange.collect(window, 2, me, peers)
            )
            for dst in peers:
                exchange.post(window, 3, me, dst, status)
            statuses = exchange.collect(window, 3, me, peers)
            statuses[me] = status
            engine.resolve(statuses)
        return engine.result_fragment()
    except BaseException as exc:
        exchange.abort(f"shard {me} failed: {exc!r}")
        raise
