"""Array-backed partial views: whole-overlay topology kernels.

The object topology layer (:mod:`repro.topology.views`,
:mod:`repro.topology.newscast`, :mod:`repro.topology.cyclon`,
:mod:`repro.topology.static`) stores one Python view per node and
advances the overlay one exchange at a time — the right shape for the
reference engine, and exactly the wrong shape for the vectorized fast
path, where a single Python round-trip per node erases the batching
win.  This module re-expresses every topology model the library knows
as structure-of-arrays state:

* an ``(n, c)`` int matrix of peer ids (``-1`` = empty slot), and
* an ``(n, c)`` integer-timestamp matrix (``-1`` empty),

with a handful of whole-network kernels per protocol cycle.  All
classes here implement the
:class:`~repro.topology.provider.ViewProvider` contract, making them
drop-in peers of the object backend.

Integer logical time
--------------------

Object views stamp descriptors with ``cycle + uniform()`` — a float.
Array views quantize the same quantity to ``cycle * 2**12 + frac``
with ``frac`` a uniform 12-bit integer (:data:`TS_SCALE`): freshness
comparisons stay exact integer comparisons, same-cycle stamps stay
unbiased (the anti-hub measure the object protocol documents), and —
decisively — a ``(node_id, timestamp)`` descriptor packs into one
``int64`` sort key, which is what makes the merge kernel fast.

Merge-kernel semantics
----------------------

:func:`merge_candidates` applies the NEWSCAST merge rule of
:meth:`~repro.topology.views.PartialView.merge` — union, dedup keeping
the freshest entry per id, drop-self, truncate to the ``c`` freshest
with equal-timestamp ties broken by descending id — to *every* row of
a candidate matrix at once, as two row-wise ``np.sort`` passes over
packed keys:

1. sort by ``(id, timestamp desc)`` — duplicates become adjacent with
   the freshest first, so dedup is one shifted comparison;
2. re-key survivors by ``(timestamp desc, id desc)`` and sort again —
   the first ``c`` columns *are* the merged view, freshest-first.

Sorting packed ``int64`` values (not argsort: no indirection) costs
~0.3 ms per thousand 83-wide rows, letting one call merge every
exchange of a round.  The property tests in
``tests/topology/test_array_views.py`` pin exact equality against
``PartialView.merge`` on integer timestamps.

One merge per NEWSCAST exchange
-------------------------------

In an exchange between ``a`` and ``b`` both ends merge the *same*
multiset — ``view(a) ∪ view(b) ∪ {fresh a, fresh b}`` — and differ
only in which own id is dropped.  Dedup is per id, so dropping ``a``
before the merge (a row per end with ``self_ids = a``) equals deleting
``a``'s one surviving entry after it.  :func:`exchange_views`
therefore merges one ``2c + 2`` wide row *per pair* with no self id and
capacity ``c + 1``, and each end keeps the first ``c`` entries left
after deleting its own id: a shift-left from that id's column, or the
plain prefix when the id is not among the ``c + 1`` freshest; padding
stays at the tail.  Half the rows through the sorts and half the gather
volume of a row per end, the same views bit for bit — stale descriptors
of the partner, short views and equal-timestamp ties included (pinned
against the row-per-end merge in ``tests/topology/test_array_views.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import Workspace, get_backend
from repro.core.kernels import numpy_backend as _np_kernels
from repro.topology.provider import ViewProvider
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "TS_SCALE",
    "merge_candidates",
    "merge_views",
    "draw_view_entries",
    "match_round",
    "exchange_views",
    "NewscastArrayViews",
    "CyclonArrayViews",
    "StaticArrayViews",
    "OracleViews",
]

#: Packed-key layout — canonical definitions live with the kernel
#: implementations in :mod:`repro.core.kernels.numpy_backend`; the
#: aliases keep this module's historical namespace for tests and
#: downstream imports.
_EMPTY_ID = _np_kernels.EMPTY_ID
_EMPTY_TS = _np_kernels.EMPTY_TS

#: Sub-cycle timestamp resolution: logical time = cycle * TS_SCALE + frac.
TS_SCALE = 1 << 12

#: Bit layout of the packed sort keys: ids below 2**30, timestamps
#: below 2**32 (~2**20 cycles at TS_SCALE sub-steps).
_ID_BITS = _np_kernels.ID_BITS
_ID_MASK = _np_kernels.ID_MASK
_TS_MASK = _np_kernels.TS_MASK
_DEAD_KEY = _np_kernels.DEAD_KEY


def _grow(matrix: np.ndarray, rows: int, fill) -> np.ndarray:
    """Return ``matrix`` with capacity for ``rows`` rows (geometric)."""
    if matrix.shape[0] >= rows:
        return matrix
    new_rows = max(rows, 2 * matrix.shape[0])
    grown = np.full((new_rows, *matrix.shape[1:]), fill, dtype=matrix.dtype)
    grown[: matrix.shape[0]] = matrix
    return grown


def merge_candidates(
    cand_ids: np.ndarray,
    cand_ts: np.ndarray,
    self_ids: np.ndarray,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """NEWSCAST-merge every row of a candidate matrix at once.

    Parameters
    ----------
    cand_ids / cand_ts:
        ``(m, w)`` candidate descriptors per receiving node — its own
        view entries plus everything offered to it this cycle, in any
        order.  ``-1`` ids are padding.  Timestamps are non-negative
        integers below ``2**32`` (see :data:`TS_SCALE`); ids are below
        ``2**30``.
    self_ids:
        ``(m,)`` receiving node of each row; its own id is dropped.
    capacity:
        ``c``: the output width / size bound.

    Returns
    -------
    ``(m, capacity)`` id and timestamp matrices, freshest-first,
    ``-1`` padded.
    """
    # The implementation moved to the kernel backend layer (PR 8) so
    # alternative backends can supply compiled merges; this wrapper is
    # the stable public entry point.
    return _np_kernels.merge_candidates(cand_ids, cand_ts, self_ids, capacity)


def merge_views(
    own_ids: np.ndarray,
    own_ts: np.ndarray,
    inc_ids: np.ndarray,
    inc_ts: np.ndarray,
    self_ids: np.ndarray,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-operand view of :func:`merge_candidates`.

    The direct analogue of ``own.merge(incoming, own_id)`` on
    :class:`~repro.topology.views.PartialView`, for ``m`` rows at
    once; equal-timestamp duplicates keep one copy (they are identical
    descriptors), matching ``PartialView._absorb``'s keep-current rule
    in effect.
    """
    return merge_candidates(
        np.concatenate([own_ids, inc_ids], axis=1),
        np.concatenate([own_ts, inc_ts], axis=1),
        self_ids,
        capacity,
    )


def draw_view_entries(own: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniform entry per row of the gathered views ``own`` (``-1`` = empty).

    Views keep their entries left-compacted (a kernel invariant), so a
    uniform draw over the first ``count`` columns is a uniform draw
    over the view.
    """
    counts = (own >= 0).sum(axis=1)
    pick = np.minimum(
        (rng.random(own.shape[0]) * counts).astype(np.int64),
        np.maximum(counts - 1, 0),
    )
    peers = own[np.arange(own.shape[0]), pick]
    return np.where(counts > 0, peers, _EMPTY_ID)


def match_round(e_init: np.ndarray, e_tgt: np.ndarray, n_ids: int) -> np.ndarray:
    """First-come vertex-disjoint matching over ``(initiator, target)`` id pairs.

    Pair ``k`` is accepted iff it is the first (lowest ``k``) pair to
    touch both of its ends; ids are below ``n_ids``.  Accepted pairs
    share no node, so one symmetric batch executes them all.
    """
    ks = np.arange(e_init.shape[0], dtype=np.int64)
    key = np.sort(
        (np.concatenate([e_init, e_tgt]) << 32) | np.concatenate([ks, ks])
    )
    first = np.empty(key.shape, dtype=bool)
    first[0] = True
    first[1:] = (key[1:] >> 32) != (key[:-1] >> 32)
    first_k = np.full(n_ids, -1, dtype=np.int64)
    first_k[key[first] >> 32] = key[first] & 0xFFFFFFFF
    return (first_k[e_init] == ks) & (first_k[e_tgt] == ks)


def exchange_views(
    ids: np.ndarray,
    ts: np.ndarray,
    rows: np.ndarray,
    pairs: np.ndarray,
    fresh_ts: np.ndarray,
    backend,
    ws: Workspace,
) -> None:
    """Symmetric view exchange of vertex-disjoint pairs, in place.

    ``pairs`` holds the ``(p, 2)`` node ids of the two ends, ``rows``
    their rows in the view matrices ``ids`` / ``ts`` (the same thing
    for a whole-overlay matrix, ``id - lo`` for a shard's block) and
    ``fresh_ts`` their fresh self-descriptor stamps.  One merge per
    pair, then each end drops its own id (see "One merge per NEWSCAST
    exchange" in the module docstring).
    """
    p, c = pairs.shape[0], ids.shape[1]
    cand_ids = ws.take("nc_cand_ids", (p, 2 * c + 2), np.int64)
    cand_ts = ws.take("nc_cand_ts", (p, 2 * c + 2), np.int64)
    # np.take needs a contiguous out=: gather both views of every
    # pair in one call, then copy the block into place.
    gather = ws.take("nc_gather", (p, 2, c), np.int64)
    for cand, views, fresh in ((cand_ids, ids, pairs), (cand_ts, ts, fresh_ts)):
        np.take(views, rows, axis=0, out=gather, mode="clip")
        np.copyto(cand[:, : 2 * c], gather.reshape(p, 2 * c))
        cand[:, 2 * c :] = fresh
    merged_ids, merged_ts = backend.merge_candidates(
        cand_ids, cand_ts, np.full(p, _EMPTY_ID), c + 1, ws=ws
    )
    # Delete each end's own id by a shift-left from its column
    # (padding stays at the tail); axis 1 is the end (a, b).
    shifted = ws.take("nc_shifted", (p, 2, c), bool)
    np.equal(merged_ids[:, None, :c], pairs[:, :, None], out=shifted)
    np.logical_or.accumulate(shifted, axis=2, out=shifted)
    kept = ws.take("nc_kept", (p, 2, c), np.int64)
    for merged, views in ((merged_ids, ids), (merged_ts, ts)):
        np.copyto(kept, merged[:, None, :c])
        np.copyto(kept, merged[:, None, 1:], where=shifted)
        views[rows.ravel()] = kept.reshape(2 * p, c)


class _ArrayViewBase(ViewProvider):
    """Shared id/timestamp matrix storage and bookkeeping."""

    def __init__(self, n: int, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ConfigurationError("view capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng
        self._ids = np.full((n, capacity), _EMPTY_ID, dtype=np.int64)
        self._ts = np.full((n, capacity), _EMPTY_TS, dtype=np.int64)
        self.exchanges = 0
        self.failed_exchanges = 0
        #: Kernel seam: a stand-alone provider runs the NumPy oracle
        #: over a private arena; an engine shares its own through
        #: attach_kernels.
        self._backend = get_backend("numpy")
        self._workspace = Workspace()

    # -- ViewProvider ----------------------------------------------------------

    def attach_kernels(self, backend, workspace) -> None:
        self._backend = backend
        self._workspace = workspace

    def ensure_capacity(self, n_ids: int) -> None:
        self._ids = _grow(self._ids, n_ids, _EMPTY_ID)
        self._ts = _grow(self._ts, n_ids, _EMPTY_TS)

    def known_peers(self, node_id: int) -> list[int]:
        row = self._ids[node_id]
        return [int(p) for p in row[row >= 0]]

    def neighbor_matrix(self) -> np.ndarray:
        return self._ids.copy()

    def timestamp_of(self, node_id: int, peer_id: int) -> int | None:
        """Timestamp of ``peer_id`` in ``node_id``'s view, or None."""
        row = self._ids[node_id]
        hit = np.nonzero(row == peer_id)[0]
        return int(self._ts[node_id, hit[0]]) if hit.size else None

    def view_counts(self, node_ids: np.ndarray) -> np.ndarray:
        """Number of view entries per node of ``node_ids``.

        Used by the event engines to tell silent nodes (empty view →
        no shuffle request) from active initiators without reading the
        matrices directly.
        """
        return (self._ids[node_ids] >= 0).sum(axis=1)

    def gossip_targets(
        self, live_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One uniform view entry per live node (``-1`` = empty view)."""
        own = self._workspace.take(
            "gt_own", (live_ids.shape[0], self._ids.shape[1]), np.int64
        )
        np.take(self._ids, live_ids, axis=0, out=own, mode="clip")
        return draw_view_entries(own, rng)

    def on_crash(self, node_id: int) -> None:
        """Default: no failure detector; stale entries age out."""

    @staticmethod
    def _clock(now: float) -> int:
        """Validate the packed-key clock bound (2**32 / TS_SCALE cycles).

        Timestamps must stay below 2**32 for the merge kernel's int64
        key packing; overflowing would silently corrupt merges, so
        fail loudly instead (~10**6 cycles — far past any configured
        run; reachable only by hand-driven infinite loops).
        """
        cycle = int(now)
        if cycle >= (1 << 32) // TS_SCALE:
            raise ConfigurationError(
                f"logical time {cycle} exceeds the array-view clock bound "
                f"({(1 << 32) // TS_SCALE} cycles)"
            )
        return cycle

    def on_join(self, node_id: int, live_ids: np.ndarray, now: float) -> None:
        """Bootstrap a joiner's view with one uniform live contact."""
        self.ensure_capacity(node_id + 1)
        others = live_ids[live_ids != node_id]
        if others.size == 0:
            return
        contact = others[int(self.rng.integers(others.size))]
        self._ids[node_id, 0] = contact
        self._ts[node_id, 0] = int(now) * TS_SCALE
        self._ids[node_id, 1:] = _EMPTY_ID
        self._ts[node_id, 1:] = _EMPTY_TS

    # -- shared helpers --------------------------------------------------------

    def bootstrap(self, live_ids: np.ndarray, contacts: int | None = None) -> None:
        """Seed every live row with uniform random contacts at t = 0.

        The array analogue of
        :func:`~repro.topology.newscast.bootstrap_views` (PeerSim's
        ``WireKOut``).  Small populations draw exactly-distinct
        contacts; above ``2048`` nodes contacts are drawn with
        replacement and deduplicated (a view then rarely starts one or
        two entries short of ``c`` — indistinguishable after a cycle
        of mixing, and it avoids materializing an ``n × n`` key
        matrix).
        """
        n = live_ids.shape[0]
        if n <= 1:
            return
        self.ensure_capacity(int(live_ids.max()) + 1)
        wanted = min(self.capacity if contacts is None else contacts, n - 1)
        if n <= 2048:
            keys = self.rng.random((n, n))
            keys[np.arange(n), np.arange(n)] = np.inf  # never self
            picks = np.argpartition(keys, wanted - 1, axis=1)[:, :wanted]
            self._ids[live_ids, :wanted] = live_ids[picks]
            self._ts[live_ids, :wanted] = 0
            return
        # Large populations: replacement + dedup through the merge kernel.
        draw = live_ids[self.rng.integers(0, n, size=(n, wanted + wanted // 2))]
        collide = draw == live_ids[:, None]
        draw[collide] = live_ids[(np.nonzero(collide)[0] + 1) % n]
        ids, ts = merge_views(
            self._ids[live_ids],
            self._ts[live_ids],
            draw,
            np.zeros_like(draw),
            live_ids,
            self.capacity,
        )
        self._ids[live_ids] = ids
        self._ts[live_ids] = ts


class NewscastArrayViews(_ArrayViewBase):
    """NEWSCAST view dynamics as whole-overlay array kernels.

    One :meth:`begin_cycle` performs every live node's push–pull view
    exchange: each node draws a uniform entry from its view, both ends
    stamp fresh self-descriptors with random sub-cycle fractions (the
    same anti-hub measure the object protocol documents), and both
    ends merge the other's current view plus that self-descriptor.
    Exchanges whose contact is dead fail silently and keep the stale
    entry — NEWSCAST has no failure detector.

    Exchanges execute as a sequence of vertex-disjoint *rounds*, each
    one batched :func:`merge_candidates` call reading the current
    (not cycle-start) views — equivalent to some sequential order of
    the same exchanges, preserving the in-cycle information cascade
    that gives reference-engine NEWSCAST overlays their clustering
    (pinned by ``tests/topology/test_provider_equivalence.py``).
    """

    name = "newscast"

    def begin_cycle(
        self,
        live_ids: np.ndarray,
        alive: np.ndarray,
        now: float,
        initiators: np.ndarray | None = None,
    ) -> None:
        """One exchange per initiator (default: every live node).

        ``initiators`` — the cohort-batched event engine's subset form:
        only these nodes start exchanges this call, but their targets
        may be any node and merge symmetrically, and every live node's
        self-descriptor is stamped fresh (a target answers a shuffle
        with its own current descriptor regardless of whose timer
        fired).  ``None`` keeps the cycle-driven semantics exactly.
        """
        m = live_ids.shape[0]
        if m < 2 or (initiators is not None and initiators.size == 0):
            return
        rng = self.rng

        # Fresh self-descriptor stamps for the whole cycle, indexed by
        # node id.
        n_rows = self._ids.shape[0]
        self_ts = np.zeros(n_rows, dtype=np.int64)
        self_ts[live_ids] = self._clock(now) * TS_SCALE + rng.integers(
            0, TS_SCALE, size=m
        )

        # The reference engine runs the cycle's exchanges sequentially
        # in shuffled order, each reading the *current* views — that
        # in-cycle cascading is what gives NEWSCAST overlays their
        # characteristic clustering and must not be flattened away.
        # Vertex-disjoint exchanges commute, so run rounds of
        # node-disjoint pairs (first-come matching over a shuffled
        # priority): each round's initiators pick partners from their
        # current views and the round executes as one symmetric batch
        # against round-start state — exactly some sequential order of
        # one-exchange-per-initiator.
        if initiators is None:
            pending = live_ids[rng.permutation(m)]
        else:
            pending = initiators[rng.permutation(initiators.shape[0])]
        while pending.size:
            targets = self.gossip_targets(pending, rng)
            known = targets >= 0  # empty views stay silent, like the
            # object protocol's isolated-node rule
            dead = known & ~alive[np.maximum(targets, 0)]
            self.failed_exchanges += int(dead.sum())
            ok = known & ~dead
            e_init = pending[ok]
            e_tgt = targets[ok]
            if e_init.size == 0:
                break
            accept = match_round(e_init, e_tgt, n_rows)
            self.exchanges += int(accept.sum())
            self._exchange(
                np.stack([e_init[accept], e_tgt[accept]], axis=1), self_ts
            )
            pending = e_init[~accept]

    def _exchange(self, pairs: np.ndarray, self_ts: np.ndarray) -> None:
        """:func:`exchange_views` of ``(p, 2)`` id pairs; ``self_ts`` is by node id."""
        exchange_views(
            self._ids, self._ts, pairs, pairs, self_ts[pairs],
            self._backend, self._workspace,
        )


class CyclonArrayViews(_ArrayViewBase):
    """CYCLON shuffles as whole-overlay array kernels.

    Per cycle each live node removes its *oldest* entry as shuffle
    partner (removal is permanent when the partner is dead: the
    protocol's built-in failure detection), extracts ``l − 1`` further
    random entries plus a fresh self-descriptor, and swaps subsets
    with the partner.  Absorption keeps existing entries on id clashes
    and refills leftover slots with the entries that were sent —
    views stay at ``c`` entries, concentrating in-degree around ``c``.
    Collisions (several nodes shuffling with one partner) resolve in
    sequential rounds like the reference engine's in-cycle delivery.
    """

    name = "cyclon"

    def __init__(
        self,
        n: int,
        capacity: int,
        rng: np.random.Generator,
        shuffle_length: int | None = None,
    ):
        super().__init__(n, capacity, rng)
        self.shuffle_length = (
            max(1, capacity // 2) if shuffle_length is None else shuffle_length
        )
        if not (1 <= self.shuffle_length <= capacity):
            raise ConfigurationError(
                "CYCLON shuffle_length must be in [1, view_size]"
            )

    # -- helpers ---------------------------------------------------------------

    def _compact(self, rows: np.ndarray, keep: np.ndarray) -> None:
        """Left-compact kept entries of ``rows`` (order preserved)."""
        ids = self._ids[rows]
        ts = self._ts[rows]
        pos = np.cumsum(keep, axis=1) - 1
        out_ids = np.full_like(ids, _EMPTY_ID)
        out_ts = np.full_like(ts, _EMPTY_TS)
        r = np.broadcast_to(np.arange(rows.shape[0])[:, None], ids.shape)
        out_ids[r[keep], pos[keep]] = ids[keep]
        out_ts[r[keep], pos[keep]] = ts[keep]
        self._ids[rows] = out_ids
        self._ts[rows] = out_ts

    def _extract_random(
        self, rows: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return up to ``count`` random entries per row."""
        ids = self._ids[rows]
        ts = self._ts[rows]
        m, c = ids.shape
        keys = self.rng.random((m, c))
        keys[ids < 0] = np.inf
        count = min(count, c)
        picks = np.argpartition(keys, min(count, c - 1), axis=1)[:, :count]
        r = np.arange(m)[:, None]
        out_ids = ids[r, picks]
        out_ts = ts[r, picks]
        valid = out_ids >= 0
        out_ids = np.where(valid, out_ids, _EMPTY_ID)
        out_ts = np.where(valid, out_ts, _EMPTY_TS)
        removed = np.zeros((m, c), dtype=bool)
        removed[r, picks] = valid
        self._compact(rows, ~removed & (ids >= 0))
        return out_ids, out_ts

    def _absorb(
        self,
        rows: np.ndarray,
        received: tuple[np.ndarray, np.ndarray],
        sent: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """CYCLON acceptance: keep current, add new, refill with sent."""
        cur_ids, cur_ts = self._ids[rows], self._ts[rows]
        rec_ids, rec_ts = received
        snt_ids, snt_ts = sent
        not_self = lambda ids: (ids >= 0) & (ids != rows[:, None])  # noqa: E731
        rec_ok = not_self(rec_ids) & ~(
            (rec_ids[:, :, None] == cur_ids[:, None, :]).any(axis=2)
        )
        # Sent-back refill: skip entries now present via current/received.
        snt_ok = (
            not_self(snt_ids)
            & ~((snt_ids[:, :, None] == cur_ids[:, None, :]).any(axis=2))
            & ~(
                (snt_ids[:, :, None] == np.where(rec_ok, rec_ids, -2)[:, None, :])
                .any(axis=2)
            )
        )
        all_ids = np.concatenate([cur_ids, rec_ids, snt_ids], axis=1)
        all_ts = np.concatenate([cur_ts, rec_ts, snt_ts], axis=1)
        ok = np.concatenate([cur_ids >= 0, rec_ok, snt_ok], axis=1)
        pos = np.cumsum(ok, axis=1) - 1
        keep = ok & (pos < self.capacity)
        out_ids = np.full((rows.shape[0], self.capacity), _EMPTY_ID, np.int64)
        out_ts = np.full((rows.shape[0], self.capacity), _EMPTY_TS, np.int64)
        r = np.broadcast_to(np.arange(rows.shape[0])[:, None], all_ids.shape)
        out_ids[r[keep], pos[keep]] = all_ids[keep]
        out_ts[r[keep], pos[keep]] = all_ts[keep]
        self._ids[rows] = out_ids
        self._ts[rows] = out_ts

    # -- protocol --------------------------------------------------------------

    def begin_cycle(
        self, live_ids: np.ndarray, alive: np.ndarray, now: float
    ) -> None:
        if live_ids.shape[0] < 2:
            return
        ids = self._ids[live_ids]
        ts = self._ts[live_ids]
        counts = (ids >= 0).sum(axis=1)
        busy = counts > 0
        if not np.any(busy):
            return
        rows = live_ids[busy]
        ids, ts = ids[busy], ts[busy]

        # Oldest entry = shuffle partner (ties: lowest id), removed now.
        huge = np.int64(1) << 62
        ts_key = np.where(ids >= 0, ts, huge)
        oldest_ts = ts_key.min(axis=1)
        id_key = np.where(
            ts_key == oldest_ts[:, None], ids, np.iinfo(np.int64).max
        )
        col = id_key.argmin(axis=1)
        r = np.arange(rows.shape[0])
        targets = ids[r, col]
        removed = np.zeros_like(ids, dtype=bool)
        removed[r, col] = True
        self._compact(rows, ~removed & (ids >= 0))

        ok = alive[targets]
        self.failed_exchanges += int((~ok).sum())
        if not np.any(ok):
            return
        init = rows[ok]
        tgt = targets[ok]
        self.exchanges += int(init.shape[0])

        # Outgoing subset: l-1 random entries + a fresh self-descriptor.
        out_ids, out_ts = self._extract_random(init, self.shuffle_length - 1)
        frac = self._clock(now) * TS_SCALE + self.rng.integers(
            0, TS_SCALE, size=init.shape[0]
        )
        my_ids = np.concatenate([out_ids, init[:, None]], axis=1)
        my_ts = np.concatenate([out_ts, frac[:, None]], axis=1)

        # Collision rounds: unique targets per round, sequential within.
        order = np.argsort(tgt, kind="stable")
        tgt_sorted = tgt[order]
        new_group = np.empty(tgt_sorted.shape, dtype=bool)
        new_group[0] = True
        new_group[1:] = tgt_sorted[1:] != tgt_sorted[:-1]
        starts = np.maximum.accumulate(
            np.where(new_group, np.arange(tgt_sorted.size), 0)
        )
        round_index = np.arange(tgt_sorted.size) - starts
        for p in range(int(round_index.max(initial=-1)) + 1):
            sel = round_index == p
            tgt_rows = tgt_sorted[sel]
            init_rows = order[sel]
            initiators = init[init_rows]
            their_ids, their_ts = self._extract_random(
                tgt_rows, self.shuffle_length
            )
            self._absorb(
                tgt_rows,
                (my_ids[init_rows], my_ts[init_rows]),
                (their_ids, their_ts),
            )
            # Initiators absorb the reply and refill with what they
            # sent (the removed partner entry stays removed — it was
            # traded for the shuffle).
            self._absorb(
                initiators,
                (their_ids, their_ts),
                (out_ids[init_rows], out_ts[init_rows]),
            )


class StaticArrayViews(ViewProvider):
    """Fixed overlays (ring / k-regular / star / custom adjacency).

    The adjacency is laid out once in CSR form (one flat neighbor
    array plus per-node offsets), so storage and per-cycle sampling
    are O(edges) — a star overlay whose hub knows ``n - 1`` peers
    costs O(n), not the O(n²) a degree-padded matrix would;
    :meth:`begin_cycle` is a no-op.  Joiners under churn get the same
    knowledge the object backend's factories hand them: star joiners
    learn the hub, other static overlays leave them isolated.
    """

    def __init__(
        self,
        adjacency: dict[int, list[int]],
        rng: np.random.Generator,
        name: str = "static",
        join_contacts: list[int] | None = None,
    ):
        self.name = name
        self.rng = rng
        self.exchanges = 0
        self.failed_exchanges = 0
        self._join_contacts = list(join_contacts or [])
        n = (max(adjacency) + 1) if adjacency else 1
        degrees = np.zeros(n, dtype=np.int64)
        for nid, peers in adjacency.items():
            degrees[nid] = len(peers)
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self._indptr[1:])
        self._flat = np.full(int(self._indptr[-1]), _EMPTY_ID, dtype=np.int64)
        for nid, peers in adjacency.items():
            self._flat[self._indptr[nid] : self._indptr[nid] + len(peers)] = peers
        self.capacity = int(degrees.max(initial=1))
        #: Joiner contacts, one per id at or past the initial population.
        self._joiner_base = n
        self._joiner_contact = np.empty(0, dtype=np.int64)

    def begin_cycle(
        self, live_ids: np.ndarray, alive: np.ndarray, now: float
    ) -> None:
        """Static topologies do no periodic work."""

    def ensure_capacity(self, n_ids: int) -> None:
        joiners = max(0, n_ids - self._joiner_base)
        if joiners > self._joiner_contact.shape[0]:
            grown = np.full(
                max(joiners, 2 * self._joiner_contact.shape[0]),
                _EMPTY_ID, dtype=np.int64,
            )
            grown[: self._joiner_contact.shape[0]] = self._joiner_contact
            self._joiner_contact = grown

    def on_join(self, node_id: int, live_ids: np.ndarray, now: float) -> None:
        self.ensure_capacity(node_id + 1)
        contacts = [c for c in self._join_contacts if c != node_id]
        if contacts:
            self._joiner_contact[node_id - self._joiner_base] = contacts[0]

    def on_crash(self, node_id: int) -> None:
        """Static neighbor lists never react to failures."""

    def _peer_list(self, node_id: int) -> np.ndarray:
        if node_id < self._joiner_base:
            row = self._flat[self._indptr[node_id] : self._indptr[node_id + 1]]
        else:
            row = self._joiner_contact[node_id - self._joiner_base : node_id
                                       - self._joiner_base + 1]
        return row[row >= 0]

    def gossip_targets(
        self, live_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        base = np.minimum(live_ids, self._joiner_base - 1)
        counts = (self._indptr[base + 1] - self._indptr[base])
        starts = self._indptr[base]
        joiner = live_ids >= self._joiner_base
        if np.any(joiner):
            counts = np.where(joiner, 0, counts)
        pick = np.minimum(
            (rng.random(live_ids.shape[0]) * counts).astype(np.int64),
            np.maximum(counts - 1, 0),
        )
        if self._flat.size:
            # Zero-degree rows are masked out below; clip their index
            # (indptr may point one past the end for them).
            idx = np.minimum(starts + pick, self._flat.size - 1)
            peers = np.where(counts > 0, self._flat[idx], _EMPTY_ID)
        else:
            peers = np.full(live_ids.shape[0], _EMPTY_ID, dtype=np.int64)
        if np.any(joiner):
            contact = self._joiner_contact[
                np.maximum(live_ids - self._joiner_base, 0)
            ]
            peers = np.where(joiner, contact, peers)
        return peers

    def known_peers(self, node_id: int) -> list[int]:
        return [int(p) for p in self._peer_list(node_id)]

    def neighbor_matrix(self) -> np.ndarray:
        n = self._joiner_base + self._joiner_contact.shape[0]
        out = np.full((n, max(self.capacity, 1)), _EMPTY_ID, dtype=np.int64)
        for nid in range(n):
            peers = self._peer_list(nid)
            out[nid, : peers.shape[0]] = peers
        return out


class OracleViews(ViewProvider):
    """The idealized uniform sampler the fast path used before PR 3.

    Every node "knows" the whole live population and draws gossip
    partners uniformly from it — the idealization NEWSCAST provably
    approximates.  Kept as an explicit topology (``"oracle"``) for
    kernel-vs-overlay ablations and as the cheapest possible provider.
    """

    name = "oracle"
    capacity = 0

    def __init__(self):
        self.exchanges = 0
        self.failed_exchanges = 0
        self._live: np.ndarray | None = None

    def ensure_capacity(self, n_ids: int) -> None:
        """Oracle state is the live set itself; nothing to grow."""

    def begin_cycle(
        self, live_ids: np.ndarray, alive: np.ndarray, now: float
    ) -> None:
        self._live = live_ids

    def gossip_targets(
        self, live_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        nl = live_ids.shape[0]
        if nl < 2:
            return np.full(nl, _EMPTY_ID, dtype=np.int64)
        # Uniform peer != self, drawn exactly like the pre-provider
        # kernel (same stream consumption, same results).
        draw = rng.integers(0, nl - 1, size=nl)
        peer = draw + (draw >= np.arange(nl))
        return live_ids[peer]

    def on_crash(self, node_id: int) -> None:
        pass

    def on_join(self, node_id: int, live_ids: np.ndarray, now: float) -> None:
        pass

    def known_peers(self, node_id: int) -> list[int]:
        if self._live is None:
            return []
        return [int(p) for p in self._live if int(p) != node_id]

    def neighbor_matrix(self) -> np.ndarray:
        live = self._live if self._live is not None else np.empty(0, np.int64)
        n = live.shape[0]
        grid = np.broadcast_to(live, (n, n)).copy()
        return np.where(grid == live[:, None], _EMPTY_ID, grid)
