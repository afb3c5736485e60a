"""Sharded NEWSCAST views: local rows, global entries, boundary messages.

Each shard holds the ``(m, c)`` packed view matrix of *its own* nodes
(the layout of :mod:`repro.topology.array_views`), but the entries are
**global** node ids — the overlay is one network, only its storage is
partitioned.  A cycle's view exchanges split by where the drawn partner
lives:

* **local** (partner on this shard) — resolved immediately, by the
  draw, matching and exchange functions of
  :mod:`repro.topology.array_views` that
  :class:`~repro.topology.array_views.NewscastArrayViews` runs,
  preserving the in-cycle information cascade within the shard;
* **remote** — buffered as a *boundary-view request* carrying the
  initiator's current view (one packed row) and fresh self-descriptor
  stamp.  At the window barrier the owning shard merges the request
  into the target's row and answers with the target's pre-merge view
  (a boundary-view reply), which the initiator merges one leg later.
  A remote exchange therefore lands with one window of extra latency
  — the price of distribution, statistically invisible at NEWSCAST's
  mixing rates (pinned by ``tests/sharding/test_equivalence.py``).

Timestamps, merge semantics and tie-breaking are exactly the array
backend's (:func:`~repro.topology.array_views.merge_without_own` on
``cycle * TS_SCALE + frac`` integer stamps), so a 1-shard
:class:`ShardNewscastViews` degenerates to pure local rounds.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import Workspace, get_backend
from repro.core.kernels.numpy_backend import EMPTY_KEY
from repro.sharding.plan import ShardPlan
from repro.topology.array_views import (
    TS_SCALE,
    bootstrap_by_replacement,
    check_id_bound,
    collision_rounds,
    draw_view_entries,
    exchange_views,
    match_round,
    merge_without_own,
    pack_views,
    unpack_views,
)
from repro.utils.exceptions import ConfigurationError

__all__ = ["ShardNewscastViews", "ShardOracleViews", "make_shard_views"]

_EMPTY = np.int64(-1)


class ShardOracleViews:
    """The idealized uniform sampler, sharded: no views, no messages."""

    name = "oracle"

    def __init__(self, plan: ShardPlan, shard: int,
                 rng: np.random.Generator):
        self.plan = plan
        self.shard = shard
        self.rng = rng
        self.lo, self.hi = plan.block(shard)
        self.m = self.hi - self.lo
        self.exchanges = 0
        self.failed_exchanges = 0

    def begin_cycle(self, cycle: int) -> dict[int, dict[str, np.ndarray]]:
        return {}

    def apply_requests(self, incoming) -> dict[int, dict[str, np.ndarray]]:
        return {}

    def apply_replies(self, incoming) -> None:
        pass

    def gossip_targets(self, rng: np.random.Generator) -> np.ndarray:
        n = self.plan.nodes
        if n < 2:
            return np.full(self.m, _EMPTY, dtype=np.int64)
        gids = np.arange(self.lo, self.hi, dtype=np.int64)
        draw = rng.integers(0, n - 1, size=self.m)
        return draw + (draw >= gids)

    def neighbor_matrix(self) -> np.ndarray | None:
        return None


class ShardNewscastViews:
    """NEWSCAST view dynamics over one shard's rows of the overlay."""

    name = "newscast"

    def __init__(self, plan: ShardPlan, shard: int, capacity: int,
                 rng: np.random.Generator):
        if capacity < 1:
            raise ConfigurationError("view capacity must be >= 1")
        check_id_bound(plan.nodes)
        self.plan = plan
        self.shard = shard
        self.capacity = capacity
        self.rng = rng
        self.lo, self.hi = plan.block(shard)
        self.m = self.hi - self.lo
        self.gids = np.arange(self.lo, self.hi, dtype=np.int64)
        self._rows = np.arange(self.m, dtype=np.int64)
        self._keys = np.full((self.m, capacity), EMPTY_KEY, dtype=np.int64)
        self._counts = np.zeros(self.m, dtype=np.int64)
        self._self_ts = np.zeros(self.m, dtype=np.int64)
        self.exchanges = 0
        self.failed_exchanges = 0
        self._backend = get_backend("numpy")
        self._workspace = Workspace()
        # No shard sees the whole population to partition over, so the
        # t = 0 contacts are always drawn with replacement.
        if plan.nodes >= 2 and self.m:
            bootstrap_by_replacement(
                self, np.arange(plan.nodes, dtype=np.int64), self.gids,
                min(capacity, plan.nodes - 1),
            )

    # -- storage (by global id) -----------------------------------------------

    def _views(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return unpack_views(self._keys[ids - self.lo])

    def _store(self, ids: np.ndarray, view_ids: np.ndarray, ts: np.ndarray) -> None:
        self._keys[ids - self.lo] = pack_views(view_ids, ts)
        self._counts[ids - self.lo] = (view_ids >= 0).sum(axis=1)

    # -- sampling --------------------------------------------------------------

    def gossip_targets(self, rng: np.random.Generator) -> np.ndarray:
        """Per local node, one uniform partner (global id) for gossip."""
        return draw_view_entries(self._keys, self._counts, self._rows, rng)

    def neighbor_matrix(self) -> np.ndarray:
        """The shard's ``(m, c)`` global-id view matrix (decoded)."""
        return unpack_views(self._keys)[0]

    # -- the cycle's exchanges -------------------------------------------------

    def begin_cycle(self, cycle: int) -> dict[int, dict[str, np.ndarray]]:
        """Run local exchanges; return boundary requests keyed by shard.

        Every local node initiates once: partners on this shard
        resolve through vertex-disjoint matching rounds (re-drawing on
        collision, like the whole-overlay kernel); a remote draw —
        whether first try or after losing a matching round — emits one
        boundary-view request and retires the initiator for the cycle.
        """
        rng = self.rng
        self._self_ts = cycle * TS_SCALE + rng.integers(
            0, TS_SCALE, size=self.m
        ).astype(np.int64)
        out_init: list[np.ndarray] = []
        out_tgt: list[np.ndarray] = []
        if self.m == 0:
            return {}

        fresh = pack_views(self.gids, self._self_ts)
        pending = self.gids[rng.permutation(self.m)]
        while pending.size:
            targets = draw_view_entries(
                self._keys, self._counts, pending - self.lo, rng
            )
            known = targets >= 0
            remote = known & ((targets < self.lo) | (targets >= self.hi))
            if np.any(remote):
                out_init.append(pending[remote])
                out_tgt.append(targets[remote])
            local = known & ~remote
            e_init = pending[local]
            e_tgt = targets[local]
            if e_init.size == 0:
                break
            ends, pending = match_round(e_init, e_tgt, self.hi, self._workspace)
            self.exchanges += ends.shape[1]
            rows = ends - self.lo
            exchange_views(
                self._keys, self._counts, rows, ends, fresh[rows],
                self._backend, self._workspace,
            )

        if not out_init:
            return {}
        init = np.concatenate(out_init)
        tgt = np.concatenate(out_tgt)
        requests: dict[int, dict[str, np.ndarray]] = {}
        rows = init - self.lo
        for dst, sel in self.plan.by_owner(tgt):
            # Fancy indexing copies: a payload never aliases live rows.
            requests[dst] = {
                "vq_init": init[sel],
                "vq_tgt": tgt[sel],
                "vq_view": self._keys[rows[sel]],
                "vq_self": self._self_ts[rows[sel]],
            }
        return requests

    # -- barrier legs ----------------------------------------------------------

    def _absorb(self, owners: np.ndarray, views: np.ndarray,
                peers: np.ndarray, peer_ts: np.ndarray) -> None:
        """Each (distinct) owner merges a peer's view and fresh descriptor."""
        rows, c = owners - self.lo, self.capacity
        # The round exchange's candidate width, padded with an empty
        # key (it sorts last), so the merge reuses the same buffers.
        cand = self._workspace.take("nc_cand", (rows.shape[0], 2 * c + 2), np.int64)
        cand[:, :c] = self._keys[rows]
        cand[:, c : 2 * c] = views
        cand[:, 2 * c] = pack_views(peers, peer_ts)
        cand[:, 2 * c + 1] = EMPTY_KEY
        kept, counts = merge_without_own(
            cand, owners[None], self.capacity, self._backend, self._workspace
        )
        self._keys[rows] = kept[0]
        self._counts[rows] = counts[0]

    def apply_requests(
        self, incoming: dict[int, dict[str, np.ndarray]]
    ) -> dict[int, dict[str, np.ndarray]]:
        """Merge incoming boundary requests; answer with pre-merge views.

        Requests are applied in deterministic order (source shard,
        then arrival order within the source — itself deterministic),
        so the in-process and spool fabrics produce bit-identical
        overlays.  Several requests may target one row; they apply in
        sequential sub-rounds, like in-cycle collisions do on the
        whole-overlay kernel.
        """
        srcs = sorted(s for s in incoming if incoming[s]["vq_tgt"].size)
        if not srcs:
            return {}
        init, tgt, views, sts = (
            np.concatenate([incoming[s][key] for s in srcs])
            for key in ("vq_init", "vq_tgt", "vq_view", "vq_self")
        )
        src_of = np.repeat(srcs, [incoming[s]["vq_tgt"].shape[0] for s in srcs])
        rl = tgt - self.lo

        # Replies first: every initiator receives the target's view as
        # it stood before this window's remote merges.
        replies: dict[int, dict[str, np.ndarray]] = {}
        for s in srcs:
            sel = src_of == s
            replies[int(s)] = {
                "vr_init": init[sel],
                "vr_view": self._keys[rl[sel]],
                "vr_peer": tgt[sel],
                "vr_peer_ts": self._self_ts[rl[sel]],
            }

        # Then merge, one sub-round per same-row occurrence rank.
        for sel in collision_rounds(rl):
            self._absorb(tgt[sel], views[sel], init[sel], sts[sel])
        self.exchanges += int(tgt.size)
        return replies

    def apply_replies(
        self, incoming: dict[int, dict[str, np.ndarray]]
    ) -> None:
        """Fold boundary replies into their initiators' rows."""
        srcs = sorted(s for s in incoming if incoming[s]["vr_init"].size)
        if srcs:
            self._absorb(*(
                np.concatenate([incoming[s][key] for s in srcs])
                for key in ("vr_init", "vr_view", "vr_peer", "vr_peer_ts")
            ))


def make_shard_views(topology: str, plan: ShardPlan, shard: int,
                     capacity: int, rng: np.random.Generator):
    """Build the shard's overlay slice for a supported topology name."""
    if topology == "newscast":
        return ShardNewscastViews(plan, shard, capacity, rng)
    if topology == "oracle":
        return ShardOracleViews(plan, shard, rng)
    raise ConfigurationError(f"no sharded views for topology {topology!r}")
