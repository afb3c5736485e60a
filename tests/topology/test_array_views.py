"""Array topology kernels vs the object reference implementation.

The merge kernel is property-tested directly against
:meth:`PartialView.merge` — same laws the object implementation pins
(idempotence, size bound, freshness selection, drop-self), plus exact
set equality on integer timestamps including the id tie-break.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernels import Workspace, get_backend
from repro.topology.array_views import (
    CyclonArrayViews,
    NewscastArrayViews,
    OracleViews,
    StaticArrayViews,
    TS_SCALE,
    exchange_views,
    match_round,
    merge_views,
    pack_views,
    smallest_keys,
    unpack_views,
)
from repro.core.kernels.numpy_backend import EMPTY_KEY, MAX_ID, TS_MASK
from repro.topology.static import ring_lattice, star_graph
from repro.topology.views import NodeDescriptor, PartialView
from repro.utils.exceptions import ConfigurationError

#: Both ends of both packed fields ride along in every id / stamp pool.
EDGE_IDS = np.array([0, 1, MAX_ID - 1, MAX_ID], dtype=np.int64)
EDGE_TS = np.array([0, 1, TS_MASK - 1, TS_MASK], dtype=np.int64)


def random_view(rng, capacity, ids_pool, ts_pool, fill=None):
    """A -1-padded (ids, ts) row with distinct ids, any order."""
    most = min(capacity, ids_pool.size)
    n = int(rng.integers(0, most + 1)) if fill is None else fill
    ids = np.full(capacity, -1, dtype=np.int64)
    ts = np.full(capacity, -1, dtype=np.int64)
    ids[:n] = rng.permutation(ids_pool)[:n]
    ts[:n] = rng.choice(ts_pool, n)
    return ids, ts


def as_partial_view(capacity, ids, ts):
    return PartialView(
        capacity,
        [NodeDescriptor(int(i), float(t)) for i, t in zip(ids, ts) if i >= 0],
    )


def view_set(ids, ts):
    return {(int(i), int(t)) for i, t in zip(ids, ts) if i >= 0}


def assert_view_rows(ids, ts, owners, ascending=True):
    """Left-compacted, duplicate-free, self-free, freshest first."""
    for row_ids, row_ts, owner in zip(ids, ts, owners):
        valid = row_ids >= 0
        assert not np.any(valid[1:] & ~valid[:-1])
        assert np.all(row_ts[~valid] == -1)
        held = row_ids[valid].tolist()
        assert len(set(held)) == len(held)
        assert int(owner) not in held
        if ascending:
            keys = pack_views(row_ids, row_ts)
            assert np.all(np.diff(keys) >= 0)


class TestPackedLayout:
    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.integers(-1, MAX_ID), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pack_unpack_is_the_identity(self, ids, seed):
        ids = np.array(ids + [0, MAX_ID, -1], dtype=np.int64)
        ts = np.random.default_rng(seed).choice(
            np.concatenate([EDGE_TS, np.arange(2, 9)]), ids.size
        )
        ts[ids < 0] = -1
        keys = pack_views(ids, ts)
        assert keys.dtype == np.int64 and keys.min() >= 0
        assert np.all(keys[ids < 0] == EMPTY_KEY)
        assert np.all(keys[ids >= 0] < EMPTY_KEY)
        got_ids, got_ts = unpack_views(keys)
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_array_equal(got_ts, ts)

    def test_ascending_keys_are_view_order(self):
        # Freshest first, equal stamps by descending id, empties last.
        ids = np.array([3, 9, MAX_ID, 0, -1, 4], dtype=np.int64)
        ts = np.array([7, 7, 2, TS_MASK, -1, 0], dtype=np.int64)
        got_ids, got_ts = unpack_views(np.sort(pack_views(ids, ts)))
        assert got_ids.tolist() == [0, 9, 3, MAX_ID, 4, -1]
        assert got_ts.tolist() == [TS_MASK, 7, 7, 2, 0, -1]


class TestMergeKernel:
    def test_matches_partial_view_merge_exactly(self):
        rng = np.random.default_rng(7)
        seen = dict.fromkeys(
            ("stale self", "stale peer", "tie", "all empty", "short", "full"), 0
        )
        for trial in range(600):
            c = int(rng.integers(1, 9))
            # Twelve ids, views of up to eight: both sides routinely
            # hold (stale) copies of the same ids and of the receiver.
            pool = np.concatenate([EDGE_IDS, 2 + rng.permutation(40)[:8]])
            # Narrow stamp pools make equal-stamp ties the common case.
            ts_pool = np.concatenate(
                [EDGE_TS[rng.random(4) < 0.3], rng.integers(2, 8, 3)]
            )
            own_ids, own_ts = random_view(rng, c, pool, ts_pool)
            inc_ids, inc_ts = random_view(
                rng, int(rng.integers(1, 11)), pool, ts_pool
            )
            if trial % 7 == 0:
                own_ids[:], own_ts[:] = -1, -1
            if trial % 11 == 0:
                inc_ids[:], inc_ts[:] = -1, -1
            self_id = int(rng.choice(pool))

            out_ids, out_ts = merge_views(
                own_ids[None], own_ts[None], inc_ids[None], inc_ts[None],
                np.array([self_id]), c,
            )
            pv = as_partial_view(c, own_ids, own_ts)
            pv.merge(
                [NodeDescriptor(int(i), float(t))
                 for i, t in zip(inc_ids, inc_ts) if i >= 0],
                own_id=self_id,
            )
            ref = {(d.node_id, int(d.timestamp)) for d in pv}
            assert view_set(out_ids[0], out_ts[0]) == ref, trial
            assert_view_rows(out_ids, out_ts, [self_id])

            own, inc = view_set(own_ids, own_ts), view_set(inc_ids, inc_ts)
            seen["stale self"] += self_id in inc_ids
            seen["stale peer"] += any(
                i == j and t != u for i, t in own for j, u in inc
            )
            stamps = [t for _, t in own | inc]
            seen["tie"] += len(set(stamps)) < len(stamps)
            seen["all empty"] += not own and not inc
            seen["short"] += 0 < len(ref) < c
            seen["full"] += len(ref) == c
        assert all(seen.values()), seen

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = int(rng.integers(1, 8))
            own_ids, own_ts = random_view(rng, c, np.arange(12), np.arange(60))
            self_id = 99
            once = merge_views(own_ids[None], own_ts[None], own_ids[None],
                               own_ts[None], np.array([self_id]), c)
            twice = merge_views(once[0], once[1], own_ids[None], own_ts[None],
                                np.array([self_id]), c)
            assert view_set(once[0][0], once[1][0]) == view_set(
                twice[0][0], twice[1][0]
            )

    def test_size_bound_and_self_drop(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = int(rng.integers(1, 6))
            cand_ids = rng.integers(-1, 10, (3, 4 * c))
            cand_ts = rng.integers(0, 50, (3, 4 * c))
            selfs = rng.integers(0, 10, 3)
            out_ids, _ = merge_views(
                cand_ids[:, :c], cand_ts[:, :c], cand_ids[:, c:], cand_ts[:, c:],
                selfs, c,
            )
            assert np.all((out_ids >= 0).sum(axis=1) <= c)
            assert not np.any(out_ids == selfs[:, None])

    def test_dedup_keeps_freshest(self):
        out_ids, out_ts = merge_views(
            np.array([[3, -1]]), np.array([[5, -1]]),
            np.array([[3, 3]]), np.array([[9, 2]]),
            np.array([7]), 2,
        )
        assert view_set(out_ids[0], out_ts[0]) == {(3, 9)}

    def test_truncation_tie_breaks_by_descending_id(self):
        out_ids, out_ts = merge_views(
            np.array([[1, 2]]), np.array([[5, 5]]),
            np.array([[8, 9]]), np.array([[5, 5]]),
            np.array([0]), 2,
        )
        assert view_set(out_ids[0], out_ts[0]) == {(8, 5), (9, 5)}


def brute_force_matching(e_init, e_tgt):
    """Pair k is accepted iff no earlier pair touched either of its ends."""
    seen: set[int] = set()
    accept = []
    for a, b in zip(e_init.tolist(), e_tgt.tolist()):
        accept.append(a not in seen and b not in seen)
        seen.update((a, b))
    return np.array(accept, dtype=bool)


class TestMatchRound:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    def test_equals_brute_force_first_come_matching(self, seed, n):
        rng = np.random.default_rng(seed)
        # Initiators are distinct (one exchange per pending node) and
        # never their own target; targets repeat freely.
        e_init = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        e_tgt = (e_init + rng.integers(1, n, e_init.size)) % n
        ws = Workspace()
        ws.take("mr_first", (n,), np.int64)[:] = -7  # stale scratch is ignored
        ends, rest = match_round(e_init, e_tgt, n, ws)
        accept = brute_force_matching(e_init, e_tgt)
        np.testing.assert_array_equal(ends, [e_init[accept], e_tgt[accept]])
        np.testing.assert_array_equal(rest, e_init[~accept])
        assert np.unique(ends).size == ends.size


class TestNewscastArrayViews:
    def setup_overlay(self, n=64, c=8, seed=3):
        provider = NewscastArrayViews(n, c, np.random.default_rng(seed))
        live = np.arange(n, dtype=np.int64)
        provider.bootstrap(live)
        return provider, live, np.ones(n, dtype=bool)

    def test_views_fill_and_stay_duplicate_free(self):
        provider, live, alive = self.setup_overlay()
        for cycle in range(10):
            provider.begin_cycle(live, alive, float(cycle))
        ids = provider.neighbor_matrix()[live]
        assert np.all((ids >= 0).sum(axis=1) == provider.capacity)
        for nid in range(ids.shape[0]):
            row = ids[nid][ids[nid] >= 0].tolist()
            assert len(set(row)) == len(row)
            assert nid not in row

    @pytest.mark.parametrize("n", [2, 3, 2047, 2048])
    def test_bootstrap_blocks_equal_one_key_matrix(self, n):
        """Row-blocked key draws pick what one ``(n, n)`` draw picks."""
        c = 8
        provider = NewscastArrayViews(n, c, np.random.default_rng(11))
        live = np.arange(n, dtype=np.int64)
        provider.bootstrap(live)
        wanted = min(c, n - 1)
        keys = np.random.default_rng(11).random((n, n))
        keys[live, live] = np.inf
        picks = np.argpartition(keys, wanted - 1, axis=1)[:, :wanted]
        ids = provider.neighbor_matrix()[live]
        np.testing.assert_array_equal(ids[:, :wanted], live[picks])
        assert np.all(ids[:, wanted:] == -1)

    def test_bootstrap_transient_stays_small(self):
        import tracemalloc

        n = 2000
        provider = NewscastArrayViews(n, 20, np.random.default_rng(12))
        live = np.arange(n, dtype=np.int64)
        tracemalloc.start()
        try:
            provider.bootstrap(live)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One (n, n) key matrix alone would be 32 MB.
        assert peak < 8 * 2**20, f"bootstrap peaked at {peak / 2**20:.1f} MB"

    def test_exchanges_counted_per_live_initiator(self):
        provider, live, alive = self.setup_overlay()
        provider.begin_cycle(live, alive, 0.0)
        assert provider.exchanges == live.shape[0]

    def test_dead_contacts_fail_silently_and_age_out(self):
        provider, live, alive = self.setup_overlay()
        for cycle in range(3):
            provider.begin_cycle(live, alive, float(cycle))
        dead = set(range(16))
        alive[:16] = False
        survivors = live[16:]
        for cycle in range(3, 18):
            provider.begin_cycle(survivors, alive, float(cycle))
        assert provider.failed_exchanges > 0
        # Self-repair: stale entries pointing at the dead age out.
        ids = provider.neighbor_matrix()[survivors]
        stale = sum(1 for row in ids for p in row[row >= 0] if int(p) in dead)
        total = int((ids >= 0).sum())
        assert stale / total < 0.02

    def test_join_bootstraps_one_live_contact(self):
        provider, live, alive = self.setup_overlay()
        provider.begin_cycle(live, alive, 0.0)
        provider.ensure_capacity(65)
        provider.on_join(64, live, now=1.0)
        peers = provider.known_peers(64)
        assert len(peers) == 1 and peers[0] in set(live.tolist())
        assert provider.timestamp_of(64, peers[0]) == TS_SCALE
        assert provider.timestamp_of(64, 64) is None

    def test_timestamps_advance_with_cycles(self):
        provider, live, alive = self.setup_overlay()
        for cycle in range(4):
            provider.begin_cycle(live, alive, float(cycle))
        assert int(unpack_views(provider._keys[live])[1].max()) >= 3 * TS_SCALE

    def test_id_field_bound_fails_where_ids_are_written(self):
        provider, _, _ = self.setup_overlay(n=4, c=2)
        with pytest.raises(ConfigurationError, match=f"id bound .{MAX_ID}."):
            provider.ensure_capacity(MAX_ID + 2)
        with pytest.raises(ConfigurationError, match="id bound"):
            NewscastArrayViews(MAX_ID + 2, 2, np.random.default_rng(0))

    def test_stamp_field_bound_fails_on_join_and_begin_cycle(self):
        provider, live, alive = self.setup_overlay(n=4, c=2)
        too_late = float((1 << 32) // TS_SCALE)
        provider.on_join(3, live, now=too_late - 1)  # the last legal tick
        with pytest.raises(ConfigurationError, match="clock bound"):
            provider.on_join(3, live, now=too_late)
        with pytest.raises(ConfigurationError, match="clock bound"):
            provider.begin_cycle(live, alive, too_late)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 14),
        c=st.integers(1, 6),
        ts_range=st.sampled_from([2, 5, 40]),
    )
    def test_pair_exchange_equals_a_merge_row_per_end(
        self, seed, n, c, ts_range
    ):
        """One merge per pair == the row-per-end merge it replaced.

        Random left-compacted views, often shorter than ``c``; partners
        routinely hold stale descriptors of each other (``n`` is
        small), and the narrow timestamp ranges make equal-timestamp
        ties — among entries, and between a stale and a fresh
        descriptor, which may be the *staler* of the two — the common
        case.
        """
        rng = np.random.default_rng(seed)
        provider = NewscastArrayViews(n, c, rng)
        before_ids = np.full((n, c), -1, dtype=np.int64)
        before_ts = np.full((n, c), -1, dtype=np.int64)
        for nid in range(n):
            others = np.delete(np.arange(n), nid)
            fill = int(rng.integers(0, min(c, n - 1) + 1))
            before_ids[nid, :fill] = rng.permutation(others)[:fill]
            before_ts[nid, :fill] = rng.integers(0, ts_range, fill)
        provider._store(np.arange(n), before_ids, before_ts)
        self_ts = rng.integers(0, ts_range, n)
        p = int(rng.integers(1, n // 2 + 1))
        ends = rng.permutation(n)[: 2 * p].reshape(2, p)

        # The replaced exchange: a candidate row per end — own view,
        # the partner's view, the partner's fresh descriptor.
        rows = ends.reshape(-1)
        srcs = ends[::-1].reshape(-1)
        want_ids, want_ts = merge_views(
            before_ids[rows],
            before_ts[rows],
            np.concatenate([before_ids[srcs], srcs[:, None]], axis=1),
            np.concatenate([before_ts[srcs], self_ts[srcs][:, None]], axis=1),
            rows,
            c,
        )

        exchange_views(
            provider._keys, provider._counts, ends, ends,
            pack_views(ends, self_ts[ends]), get_backend(), Workspace(),
        )
        got_ids, got_ts = unpack_views(provider._keys)
        np.testing.assert_array_equal(got_ids[rows], want_ids)
        np.testing.assert_array_equal(got_ts[rows], want_ts)
        idle = np.setdiff1d(np.arange(n), rows)
        np.testing.assert_array_equal(got_ids[idle], before_ids[idle])
        np.testing.assert_array_equal(got_ts[idle], before_ts[idle])
        np.testing.assert_array_equal(
            provider.view_counts(np.arange(n)), (got_ids >= 0).sum(axis=1)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.integers(1, 5),
        ops=st.lists(
            st.sampled_from(["cycle", "cohort", "join", "crash", "reuse"]),
            min_size=4, max_size=24,
        ),
    )
    def test_count_vector_and_row_invariants_hold_after_every_operation(
        self, seed, c, ops
    ):
        """The count vector is state of its own; this keeps it honest.

        Starts from three joined nodes (no ``bootstrap``: its
        exactly-distinct branch leaves rows in draw order until their
        first exchange) and checks, after every drawn operation, that
        ``view_counts`` equals the decoded row lengths and that rows
        are left-compacted, duplicate-free, self-free and ascending.
        """
        rng = np.random.default_rng(seed)
        provider = NewscastArrayViews(2, c, np.random.default_rng(seed + 1))
        alive = np.zeros(64, dtype=bool)
        next_id, now = 0, 0.0

        def join(nid):
            alive[nid] = True
            provider.on_join(nid, np.flatnonzero(alive), now)

        def check():
            ids, ts = unpack_views(provider._keys)
            owners = np.arange(ids.shape[0])
            np.testing.assert_array_equal(
                provider.view_counts(owners), (ids >= 0).sum(axis=1)
            )
            np.testing.assert_array_equal(ids, provider.neighbor_matrix())
            assert_view_rows(ids, ts, owners)

        for _ in range(3):
            join(next_id)
            next_id += 1
        for op in ops:
            live = np.flatnonzero(alive)
            if op == "cycle":
                now = float(int(now) + 1)
                provider.begin_cycle(live, alive, now)
            elif op == "cohort" and live.size:
                # Same integer tick as the call before: circulating
                # descriptors may be fresher than the redrawn stamps.
                now += 0.125
                cohort = live[rng.random(live.size) < 0.6]
                cohort = cohort[provider.view_counts(cohort) > 0]
                provider.begin_cycle(live, alive, now, initiators=cohort)
            elif op == "join" and next_id < alive.size:
                join(next_id)
                next_id += 1
            elif op == "crash" and live.size > 1:
                victim = int(rng.choice(live))
                alive[victim] = False
                provider.on_crash(victim)
            elif op == "reuse" and (~alive[:next_id]).any():
                join(int(rng.choice(np.flatnonzero(~alive[:next_id]))))
            check()


class TestCyclonArrayViews:
    def setup_overlay(self, n=64, c=8, seed=5):
        provider = CyclonArrayViews(n, c, np.random.default_rng(seed))
        live = np.arange(n, dtype=np.int64)
        provider.bootstrap(live)
        return provider, live, np.ones(n, dtype=bool)

    def test_views_keep_fixed_size(self):
        provider, live, alive = self.setup_overlay()
        for cycle in range(12):
            provider.begin_cycle(live, alive, float(cycle))
        counts = (provider.neighbor_matrix()[live] >= 0).sum(axis=1)
        # Shuffles swap entries: views stay essentially full.
        assert counts.min() >= provider.capacity - 2
        assert counts.max() <= provider.capacity

    def test_no_self_or_duplicates(self):
        provider, live, alive = self.setup_overlay()
        for cycle in range(8):
            provider.begin_cycle(live, alive, float(cycle))
        ids = provider.neighbor_matrix()[live]
        for nid in range(ids.shape[0]):
            row = ids[nid][ids[nid] >= 0].tolist()
            assert len(set(row)) == len(row)
            assert nid not in row

    def test_dead_partner_entry_removed_permanently(self):
        provider, live, alive = self.setup_overlay()
        for cycle in range(4):
            provider.begin_cycle(live, alive, float(cycle))
        alive[:8] = False
        survivors = live[8:]
        for cycle in range(4, 24):
            provider.begin_cycle(survivors, alive, float(cycle))
        assert provider.failed_exchanges > 0
        ids = provider.neighbor_matrix()[survivors]
        stale = sum(1 for row in ids for p in row[row >= 0] if int(p) < 8)
        assert stale == 0  # oldest-selection flushes all dead entries

    def test_shuffle_length_validation(self):
        with pytest.raises(ConfigurationError):
            CyclonArrayViews(4, 4, np.random.default_rng(0), shuffle_length=9)


class TestStaticAndOracle:
    def test_ring_matrix_matches_builder(self):
        adj = ring_lattice(10, radius=2)
        provider = StaticArrayViews(adj, np.random.default_rng(0), name="ring")
        for nid, peers in adj.items():
            assert sorted(provider.known_peers(nid)) == sorted(peers)

    def test_star_joiner_learns_hub_others_stay_isolated(self):
        star = StaticArrayViews(
            star_graph(6, center=0), np.random.default_rng(0),
            name="star", join_contacts=[0],
        )
        star.ensure_capacity(7)
        star.on_join(6, np.arange(6, dtype=np.int64), now=2.0)
        assert star.known_peers(6) == [0]

        ring = StaticArrayViews(ring_lattice(6), np.random.default_rng(0))
        ring.ensure_capacity(7)
        ring.on_join(6, np.arange(6, dtype=np.int64), now=2.0)
        assert ring.known_peers(6) == []

    def test_gossip_targets_only_from_views(self):
        adj = ring_lattice(12, radius=1)
        provider = StaticArrayViews(adj, np.random.default_rng(0))
        live = np.arange(12, dtype=np.int64)
        rng = np.random.default_rng(1)
        for _ in range(20):
            targets = provider.gossip_targets(live, rng)
            for nid, peer in zip(live, targets):
                assert int(peer) in adj[int(nid)]

    def test_oracle_draws_uniform_live_peer(self):
        provider = OracleViews()
        live = np.arange(5, dtype=np.int64) * 3  # sparse ids
        provider.begin_cycle(live, np.ones(13, dtype=bool), 0.0)
        rng = np.random.default_rng(2)
        targets = provider.gossip_targets(live, rng)
        assert targets.shape == live.shape
        assert all(int(t) in set(live.tolist()) for t in targets)
        assert not np.any(targets == live)
        assert provider.known_peers(0) == [3, 6, 9, 12]


class TestSmallestKeys:
    """``smallest_keys`` is the prefix of a stable sort by key, whatever
    order ``argpartition`` left its picks in."""

    @pytest.mark.parametrize("rows,cols,count", [
        (1, 2, 1), (3, 5, 5), (7, 20, 3), (64, 33, 32), (16, 512, 20),
        (4, 2048, 20),
    ])
    @pytest.mark.parametrize("kth_past_count", [False, True],
                             ids=["bootstrap", "cyclon"])
    def test_picks_are_the_sorted_prefix(self, rows, cols, count,
                                         kth_past_count):
        keys = np.random.default_rng(rows * cols).random((rows, cols))
        kth = min(count, cols - 1) if kth_past_count else count - 1
        picks = smallest_keys(keys, kth, count)
        expected = np.argsort(keys, axis=1, kind="stable")[:, :count]
        np.testing.assert_array_equal(picks, expected)

    def test_order_does_not_follow_the_partition(self):
        # Reversed keys: argpartition may leave the picks in any order.
        keys = np.tile(np.arange(64, 0, -1, dtype=float), (5, 1))
        picks = smallest_keys(keys, 9, 10)
        np.testing.assert_array_equal(picks, np.tile(np.arange(63, 53, -1),
                                                     (5, 1)))

    def test_empty_slots_come_last(self):
        # CYCLON's extraction marks empty slots inf: finite keys lead, by key.
        keys = np.array([[0.7, np.inf, 0.2, np.inf, 0.5],
                         [np.inf, np.inf, np.inf, 0.1, np.inf]])
        picks = smallest_keys(keys, 3, 3)
        np.testing.assert_array_equal(picks[0], [2, 4, 0])
        assert picks[1, 0] == 3
        assert np.isinf(keys[1, picks[1, 1:]]).all()
