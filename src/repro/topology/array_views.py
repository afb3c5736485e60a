"""Array-backed partial views: whole-overlay topology kernels.

The object topology layer (:mod:`repro.topology.views`,
:mod:`repro.topology.newscast`, :mod:`repro.topology.cyclon`,
:mod:`repro.topology.static`) stores one Python view per node and
advances the overlay one exchange at a time — the right shape for the
reference engine, and exactly the wrong shape for the vectorized fast
path, where a single Python round-trip per node erases the batching
win.  This module re-expresses every topology model the library knows
as structure-of-arrays state with a handful of whole-network kernels
per protocol cycle.  All classes here implement the
:class:`~repro.topology.provider.ViewProvider` contract, making them
drop-in peers of the object backend.

Integer logical time
--------------------

Object views stamp descriptors with ``cycle + uniform()`` — a float.
Array views quantize the same quantity to ``cycle * 2**12 + frac``
with ``frac`` a uniform 12-bit integer (:data:`TS_SCALE`): freshness
comparisons stay exact integer comparisons, same-cycle stamps stay
unbiased (the anti-hub measure the object protocol documents), and a
``(node_id, timestamp)`` descriptor fits one ``int64``.

A NEWSCAST view is one packed row
---------------------------------

:class:`NewscastArrayViews` (and the sharded
:class:`~repro.sharding.views.ShardNewscastViews`) store the overlay
as **one** ``(n, c)`` ``int64`` matrix of packed descriptors plus an
``(n,)`` vector of entry counts; CYCLON, whose shuffle is positional,
keeps an id and a timestamp matrix.  A descriptor packs as ::

    (TS_MASK - ts) << ID_BITS  |  (MAX_ID - id)        # empty: int64 max

— a 32-bit stamp field over a 31-bit id field, both complemented
(:func:`pack_views` / :func:`unpack_views`).  Three properties carry
everything below:

1. *Ascending integer order is view order* — freshest first, equal
   stamps by descending id, the truncation order of
   :meth:`~repro.topology.views.PartialView.merge`.  A row sort is a
   view sort; no key is built on the way in, none decoded on the way
   out.
2. *The empty slot is the largest key* — padding sorts last, so rows
   stay left-compacted with no mask, and its id field decodes to
   ``-1`` (a draw from an empty view needs no special case).
3. *Swapping the two fields is a few shifts, and maps the empty key to
   itself* — with the id field leading, a row sort groups each id's
   copies freshest first, which is all dedup needs.

One gather, two sorts, one scatter
----------------------------------

In an exchange between ``a`` and ``b`` both ends merge the *same*
multiset — ``view(a) ∪ view(b) ∪ {fresh a, fresh b}`` — and differ
only in which own id is dropped.  :func:`exchange_views` therefore
gathers both rows of every pair of a round into one ``2c + 2`` wide
candidate row, and :func:`merge_without_own` runs the kernel
(:meth:`~repro.core.kernels.KernelBackend.merge_candidates`: swap
fields, row sort, blank each key whose left neighbour has the same id,
swap back, row sort) for the ``c + 1`` freshest survivors, deletes each
end's own id from them and counts what is left; one scatter writes both
rows back.  The shard boundary legs feed the same helper a row per
request.  Exactly the views a merge row per end gives (pinned in
``tests/topology/test_array_views.py`` against that and against
``PartialView.merge``), stale descriptors of the partner, short views
and equal-stamp ties included.

Own-id deletion compares *ids*, never the fresh key: under the cohort
engine several calls share one integer ``now`` and every call redraws
the self stamps, so the copy of ``a`` that survives dedup may be an
older draw already in circulation — fresher than, and different from,
the key ``a`` has just stamped.  When the own id is not among the
``c + 1`` survivors the plain ``c``-prefix is the view.

Rows are ascending from a node's first exchange on; ``bootstrap``'s
exactly-distinct branch leaves them in draw order until then (all
stamps are 0, and the uniform pick is the only reader of the order).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import Workspace, get_backend, grow_rows
from repro.core.kernels.numpy_backend import (
    EMPTY_KEY,
    ID_BITS,
    ID_MASK,
    MAX_ID,
    TS_MASK,
)
from repro.topology.provider import ViewProvider
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "TS_SCALE",
    "check_id_bound",
    "pack_views",
    "unpack_views",
    "merge_views",
    "draw_view_entries",
    "match_round",
    "collision_rounds",
    "merge_without_own",
    "exchange_views",
    "bootstrap_by_replacement",
    "NewscastArrayViews",
    "CyclonArrayViews",
    "StaticArrayViews",
    "OracleViews",
]

_EMPTY_ID = -1
_EMPTY_TS = -1

#: Sub-cycle timestamp resolution: logical time = cycle * TS_SCALE + frac.
TS_SCALE = 1 << 12

#: Round exchanges and the bootstrap merge work on at most this many
#: pairs / rows per kernel call, so their scratch stays a few blocks
#: of rows however large the overlay.
ROW_BLOCK = 512


def check_id_bound(n_ids: int) -> None:
    """Node ids ``0 .. n_ids - 1`` must fit the packed id field."""
    if n_ids - 1 > MAX_ID:
        raise ConfigurationError(
            f"node id {n_ids - 1} exceeds the packed-view id bound ({MAX_ID})"
        )


def pack_views(ids: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Packed descriptors of ``(ids, ts)``; negative ids are empty slots."""
    keys = ((TS_MASK - ts) << ID_BITS) | (MAX_ID - ids)
    return np.where(ids < 0, EMPTY_KEY, keys)


def unpack_views(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, ts)`` of packed descriptors, ``-1`` / ``-1`` in empty slots."""
    ids = MAX_ID - (keys & ID_MASK)
    return ids, np.where(ids < 0, _EMPTY_TS, TS_MASK - (keys >> ID_BITS))


def merge_views(
    own_ids: np.ndarray,
    own_ts: np.ndarray,
    inc_ids: np.ndarray,
    inc_ts: np.ndarray,
    self_ids: np.ndarray,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``own.merge(incoming, own_id)`` for ``m`` id / timestamp rows at once.

    The array analogue of
    :meth:`~repro.topology.views.PartialView.merge` — union, dedup
    keeping the freshest entry per id, drop-self, truncate to the ``c``
    freshest with equal-timestamp ties broken by descending id — as
    pack → merge kernel → unpack.  Timestamps are integers in
    ``[0, 2**32)``, ids in ``[0, MAX_ID]``, ``-1`` ids padding.  Dedup
    is per id, so dropping self before the merge equals deleting its
    one survivor after it.
    """
    ids = np.concatenate([own_ids, inc_ids], axis=1)
    ids = np.where(ids == self_ids[:, None], _EMPTY_ID, ids)
    keys = pack_views(ids, np.concatenate([own_ts, inc_ts], axis=1))
    return unpack_views(get_backend("numpy").merge_candidates(keys, capacity))


def draw_view_entries(
    keys: np.ndarray, counts: np.ndarray, rows: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One uniform entry (a node id; ``-1`` = empty view) from each of ``rows``.

    Rows are left-compacted, so a uniform draw over the first
    ``count`` columns is a uniform draw over the view, and column 0 of
    an empty row holds the empty key, whose id field decodes to ``-1``.
    """
    count = counts[rows]
    pick = np.minimum(
        (rng.random(rows.shape[0]) * count).astype(np.int64),
        np.maximum(count - 1, 0),
    )
    return MAX_ID - (keys[rows, pick] & ID_MASK)


def match_round(
    e_init: np.ndarray, e_tgt: np.ndarray, n_ids: int, ws: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """First-come vertex-disjoint matching over ``(initiator, target)`` id pairs.

    Pair ``k`` is accepted iff it is the first (lowest ``k``) pair to
    touch both of its ends; ids are below ``n_ids``.  Accepted pairs
    share no node, so one symmetric batch executes them all.  Returns
    their ``(2, p)`` ends (a workspace buffer) and the initiators of
    the rejected pairs.
    """
    ks = np.arange(e_init.shape[0], dtype=np.int64)
    first_k = ws.take("mr_first", (n_ids,), np.int64)
    # Only the entries this round touches are reset and read.
    first_k[e_init] = first_k[e_tgt] = ks.shape[0]
    np.minimum.at(first_k, e_init, ks)
    np.minimum.at(first_k, e_tgt, ks)
    accept = (first_k[e_init] == ks) & (first_k[e_tgt] == ks)
    p = int(np.count_nonzero(accept))
    ends = ws.take("mr_ends", (2 * p,), np.int64).reshape(2, p)
    np.compress(accept, e_init, out=ends[0])
    np.compress(accept, e_tgt, out=ends[1])
    return ends, e_init[~accept]


def smallest_keys(keys: np.ndarray, kth: int, count: int) -> np.ndarray:
    """Column indices of each row's ``count`` smallest ``keys``, by key.

    ``argpartition`` leaves its picks in an order NumPy does not specify
    (it follows the SIMD dispatch), and the callers store picks in order;
    sorting them by key makes a seed name one run on every CPU.
    """
    picks = np.argpartition(keys, kth, axis=1)[:, :count]
    order = np.argsort(np.take_along_axis(keys, picks, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(picks, order, axis=1)


def collision_rounds(keys: np.ndarray) -> list[np.ndarray]:
    """Positions of ``keys`` in rounds of distinct keys: round ``r`` holds
    each key's ``r``-th occurrence, in stable key order."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.ones(ranked.shape, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    at = np.arange(ranked.size)
    rank = at - np.maximum.accumulate(np.where(first, at, 0))
    return [order[rank == r] for r in range(int(rank.max(initial=-1)) + 1)]


def merge_without_own(
    cand: np.ndarray, own: np.ndarray, capacity: int, backend, ws: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Merge each candidate row, then delete one own id per owner from it.

    ``cand`` is ``(m, w > capacity)`` packed candidates, ``own`` the ``(e, m)``
    node ids of the ``e`` owners sharing each row (both ends of a pair
    exchange; the one receiver of a boundary request or reply).
    Returns the ``(e, m, capacity)`` views and their ``(e, m)`` entry
    counts: the ``capacity + 1`` freshest survivors of the row without
    the owner's id — found by id, see the module docstring — or their
    ``capacity``-prefix when the id is not among them.
    """
    (e, m), c = own.shape, capacity
    merged = ws.take("mw_merged", (e * m, c + 1), np.int64).reshape(e, m, c + 1)
    np.copyto(merged, backend.merge_candidates(cand, c + 1, ws=ws))  # one per owner
    id_field = ws.take("mw_ids", (m, c + 1), np.int64)
    np.bitwise_and(merged[0], ID_MASK, out=id_field)
    mask = ws.take("mw_mask", (e * m * (c + 1),), bool)
    np.equal(id_field, (MAX_ID - own)[:, :, None], out=mask.reshape(e, m, c + 1))
    # Flat position of the entry each owner drops: its id's (a merged
    # row holds an id once), else the last column.
    found = np.flatnonzero(mask)
    drop = np.arange(c, e * m * (c + 1), c + 1)
    drop[found // (c + 1)] = found
    mask[...] = True
    mask[drop] = False
    kept = ws.take("mw_kept", (e * m, c), np.int64)
    np.compress(mask, merged.reshape(-1), out=kept.reshape(-1))
    # Left-compacted rows: full unless the last column is empty.
    counts = np.full(e * m, c, dtype=np.int64)
    short = np.flatnonzero(kept[:, c - 1] == EMPTY_KEY)
    if short.size:
        counts[short] = np.count_nonzero(kept[short] != EMPTY_KEY, axis=1)
    return kept.reshape(e, m, c), counts.reshape(e, m)


def exchange_views(
    keys: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
    ends: np.ndarray,
    fresh: np.ndarray,
    backend,
    ws: Workspace,
) -> None:
    """Symmetric view exchange of vertex-disjoint pairs, in place.

    ``ends`` holds the ``(2, p)`` node ids of the pairs' two ends,
    ``rows`` their rows in the view matrix ``keys`` and the count
    vector ``counts`` (the same thing for a whole-overlay matrix,
    ``id - lo`` for a shard's block) and ``fresh`` their ``(2, p)``
    fresh self-descriptor keys.  See "One gather, two sorts, one
    scatter" in the module docstring.  Pairs share no row, so running
    them :data:`ROW_BLOCK` at a time gives the same views and caps the
    workspace buffers at that many pairs.
    """
    c = keys.shape[1]
    for lo in range(0, ends.shape[1], ROW_BLOCK):
        blk = slice(lo, lo + ROW_BLOCK)
        pair_rows = rows[:, blk]
        p = pair_rows.shape[1]
        cand = ws.take("nc_cand", (p, 2 * c + 2), np.int64)
        # np.take needs a contiguous out=: gather both views of every
        # pair in one call, then copy the block into place.
        gather = ws.take("nc_gather", (p, 2, c), np.int64)
        np.take(keys, pair_rows.T, axis=0, out=gather, mode="clip")
        np.copyto(cand[:, : 2 * c], gather.reshape(p, 2 * c))
        cand[:, 2 * c :] = fresh[:, blk].T
        kept, kept_counts = merge_without_own(cand, ends[:, blk], c, backend, ws)
        keys[pair_rows.reshape(-1)] = kept.reshape(2 * p, c)
        counts[pair_rows.reshape(-1)] = kept_counts.reshape(-1)


def bootstrap_by_replacement(
    views, population: np.ndarray, owners: np.ndarray, wanted: int
) -> None:
    """Seed owners' views with uniform t = 0 contacts drawn with replacement.

    ``owners`` are positions in ``population`` (node ids).  One
    ``views.rng.integers`` call draws ``wanted + wanted // 2`` positions
    per owner, a draw of the owner moves to the next position, and the
    merge kernel dedups the draws into the owner's view (read and
    written by node id through ``views._views`` / ``_store``) —
    :data:`ROW_BLOCK` owners at a time, as owners are independent.
    """
    n = population.shape[0]
    draw = views.rng.integers(0, n, size=(owners.shape[0], wanted + wanted // 2))
    for lo in range(0, owners.shape[0], ROW_BLOCK):
        pos, picks = owners[lo : lo + ROW_BLOCK], draw[lo : lo + ROW_BLOCK]
        collide = picks == pos[:, None]
        picks[collide] = (pos[np.nonzero(collide)[0]] + 1) % n
        own, contacts = population[pos], population[picks]
        views._store(own, *merge_views(
            *views._views(own), contacts, np.zeros_like(contacts), own,
            views.capacity,
        ))


class _ArrayViewBase(ViewProvider):
    """Bookkeeping shared by the matrix-backed providers.

    Subclasses own the storage and expose it through ``_views(rows)``
    (the decoded ``(ids, ts)`` rows), ``_store(rows, ids, ts)``,
    ``_seed_row(row, contact, stamp)`` (a one-entry view) and
    ``ensure_capacity``.
    """

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ConfigurationError("view capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng
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

    def known_peers(self, node_id: int) -> list[int]:
        row = self._views(node_id)[0]
        return [int(p) for p in row[row >= 0]]

    def neighbor_matrix(self) -> np.ndarray:
        return self._views(slice(None))[0].copy()

    def timestamp_of(self, node_id: int, peer_id: int) -> int | None:
        """Timestamp of ``peer_id`` in ``node_id``'s view, or None."""
        ids, ts = self._views(node_id)
        hit = np.nonzero(ids == peer_id)[0]
        return int(ts[hit[0]]) if hit.size else None

    def on_crash(self, node_id: int) -> None:
        """Default: no failure detector; stale entries age out."""

    @staticmethod
    def _clock(now: float) -> int:
        """Validate the packed-key clock bound (2**32 / TS_SCALE cycles).

        Timestamps must stay below 2**32 for the 32-bit stamp field of
        a packed descriptor; overflowing would silently corrupt merges,
        so fail loudly instead (~10**6 cycles — far past any configured
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
        contact = int(others[int(self.rng.integers(others.size))])
        self._seed_row(node_id, contact, self._clock(now) * TS_SCALE)

    # -- shared helpers --------------------------------------------------------

    def bootstrap(self, live_ids: np.ndarray, contacts: int | None = None) -> None:
        """Seed every live row with uniform random contacts at t = 0.

        The array analogue of
        :func:`~repro.topology.newscast.bootstrap_views` (PeerSim's
        ``WireKOut``).  Small populations draw exactly-distinct
        contacts from an ``n × n`` uniform key matrix, drawn in row
        blocks of about 2 MB so the transient stays small; above
        ``2048`` nodes contacts are drawn with replacement and
        deduplicated (a view then rarely starts one or two entries
        short of ``c`` — indistinguishable after a cycle of mixing).
        """
        n = live_ids.shape[0]
        if n <= 1:
            return
        self.ensure_capacity(int(live_ids.max()) + 1)
        wanted = min(self.capacity if contacts is None else contacts, n - 1)
        if n > 2048:
            bootstrap_by_replacement(self, live_ids, np.arange(n), wanted)
            return
        # The generator fills in C order and the picks are per row, so
        # block after block picks what one whole-matrix draw would.
        ids, ts = self._views(live_ids)
        step = max(1, (1 << 18) // n)
        for lo in range(0, n, step):
            rows = np.arange(lo, min(lo + step, n))
            keys = self.rng.random((rows.size, n))
            keys[rows - lo, rows] = np.inf  # never self
            ids[rows, :wanted] = live_ids[smallest_keys(keys, wanted - 1, wanted)]
        ts[:, :wanted] = 0
        self._store(live_ids, ids, ts)


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
    one batched :func:`exchange_views` call reading the current
    (not cycle-start) views — equivalent to some sequential order of
    the same exchanges, preserving the in-cycle information cascade
    that gives reference-engine NEWSCAST overlays their clustering
    (pinned by ``tests/topology/test_provider_equivalence.py``).
    """

    name = "newscast"

    def __init__(self, n: int, capacity: int, rng: np.random.Generator):
        super().__init__(capacity, rng)
        check_id_bound(n)
        self._keys = np.full((n, capacity), EMPTY_KEY, dtype=np.int64)
        self._counts = np.zeros(n, dtype=np.int64)

    def ensure_capacity(self, n_ids: int) -> None:
        check_id_bound(n_ids)
        self._keys = grow_rows(self._keys, n_ids, EMPTY_KEY)
        self._counts = grow_rows(self._counts, n_ids, 0)

    def _views(self, rows) -> tuple[np.ndarray, np.ndarray]:
        return unpack_views(self._keys[rows])

    def _store(self, rows, ids: np.ndarray, ts: np.ndarray) -> None:
        self._keys[rows] = pack_views(ids, ts)
        self._counts[rows] = (ids >= 0).sum(axis=-1)

    def _seed_row(self, row: int, contact: int, stamp: int) -> None:
        self._keys[row] = EMPTY_KEY
        self._keys[row, 0] = ((TS_MASK - stamp) << ID_BITS) | (MAX_ID - contact)
        self._counts[row] = 1

    def view_counts(self, node_ids: np.ndarray) -> np.ndarray:
        """Number of view entries per node of ``node_ids``.

        Used by the event engines to tell silent nodes (empty view →
        no shuffle request) from active initiators.
        """
        return self._counts[node_ids]

    def gossip_targets(
        self, live_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One uniform view entry per live node (``-1`` = empty view)."""
        return draw_view_entries(self._keys, self._counts, live_ids, rng)

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
        rng, ws = self.rng, self._workspace

        # Fresh self-descriptors for the whole cycle, indexed by node
        # id (only live nodes end up in a pair).
        n_rows = self._keys.shape[0]
        fresh = ws.take("nc_fresh", (n_rows,), np.int64)
        fresh[live_ids] = pack_views(
            live_ids,
            self._clock(now) * TS_SCALE + rng.integers(0, TS_SCALE, size=m),
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
            ends, pending = match_round(e_init, e_tgt, n_rows, ws)
            self.exchanges += ends.shape[1]
            exchange_views(
                self._keys, self._counts, ends, ends, fresh[ends],
                self._backend, ws,
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
        super().__init__(capacity, rng)
        self._ids = np.full((n, capacity), _EMPTY_ID, dtype=np.int64)
        self._ts = np.full((n, capacity), _EMPTY_TS, dtype=np.int64)
        self.shuffle_length = (
            max(1, capacity // 2) if shuffle_length is None else shuffle_length
        )
        if not (1 <= self.shuffle_length <= capacity):
            raise ConfigurationError(
                "CYCLON shuffle_length must be in [1, view_size]"
            )

    # -- storage ---------------------------------------------------------------

    def ensure_capacity(self, n_ids: int) -> None:
        self._ids = grow_rows(self._ids, n_ids, _EMPTY_ID)
        self._ts = grow_rows(self._ts, n_ids, _EMPTY_TS)

    def _views(self, rows) -> tuple[np.ndarray, np.ndarray]:
        return self._ids[rows], self._ts[rows]

    def _store(self, rows, ids: np.ndarray, ts: np.ndarray) -> None:
        self._ids[rows] = ids
        self._ts[rows] = ts

    def _seed_row(self, row: int, contact: int, stamp: int) -> None:
        self._store(row, _EMPTY_ID, _EMPTY_TS)
        self._ids[row, 0] = contact
        self._ts[row, 0] = stamp

    def gossip_targets(
        self, live_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One uniform view entry per live node (``-1`` = empty view)."""
        own = self._ids[live_ids]
        counts = (own >= 0).sum(axis=1)
        pick = np.minimum(
            (rng.random(own.shape[0]) * counts).astype(np.int64),
            np.maximum(counts - 1, 0),
        )
        return np.where(counts > 0, own[np.arange(own.shape[0]), pick], _EMPTY_ID)

    # -- helpers ---------------------------------------------------------------

    def _compact(self, rows: np.ndarray, ids: np.ndarray, ts: np.ndarray,
                 keep: np.ndarray) -> None:
        """Store the first ``capacity`` kept entries of ``ids`` / ``ts`` as
        the views of ``rows``, left-compacted in order."""
        pos = np.cumsum(keep, axis=1) - 1
        keep = keep & (pos < self.capacity)
        out_ids = np.full((rows.shape[0], self.capacity), _EMPTY_ID, np.int64)
        out_ts = np.full((rows.shape[0], self.capacity), _EMPTY_TS, np.int64)
        r = np.broadcast_to(np.arange(rows.shape[0])[:, None], ids.shape)
        out_ids[r[keep], pos[keep]] = ids[keep]
        out_ts[r[keep], pos[keep]] = ts[keep]
        self._store(rows, out_ids, out_ts)

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
        picks = smallest_keys(keys, min(count, c - 1), count)
        r = np.arange(m)[:, None]
        out_ids = ids[r, picks]
        out_ts = ts[r, picks]
        valid = out_ids >= 0
        out_ids = np.where(valid, out_ids, _EMPTY_ID)
        out_ts = np.where(valid, out_ts, _EMPTY_TS)
        removed = np.zeros((m, c), dtype=bool)
        removed[r, picks] = valid
        self._compact(rows, ids, ts, ~removed & (ids >= 0))
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
        self._compact(
            rows,
            np.concatenate([cur_ids, rec_ids, snt_ids], axis=1),
            np.concatenate([cur_ts, rec_ts, snt_ts], axis=1),
            np.concatenate([cur_ids >= 0, rec_ok, snt_ok], axis=1),
        )

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
        self._compact(rows, ids, ts, ~removed & (ids >= 0))

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
        for init_rows in collision_rounds(tgt):
            tgt_rows = tgt[init_rows]
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
        self._joiner_contact = grow_rows(self._joiner_contact, joiners, _EMPTY_ID)

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
