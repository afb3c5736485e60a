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

from repro.topology.array_views import (
    CyclonArrayViews,
    NewscastArrayViews,
    OracleViews,
    StaticArrayViews,
    TS_SCALE,
    merge_candidates,
    merge_views,
)
from repro.topology.static import ring_lattice, star_graph
from repro.topology.views import NodeDescriptor, PartialView


def random_view(rng, capacity, id_pool, fill=None):
    """A -1-padded (ids, ts) row with distinct ids, any order."""
    n = int(rng.integers(0, min(capacity, id_pool) + 1)) if fill is None else fill
    ids = np.full(capacity, -1, dtype=np.int64)
    ts = np.full(capacity, -1, dtype=np.int64)
    picks = rng.permutation(id_pool)[:n]
    ids[:n] = picks
    ts[:n] = rng.integers(0, 60, n)
    return ids, ts


def as_partial_view(capacity, ids, ts):
    return PartialView(
        capacity,
        [NodeDescriptor(int(i), float(t)) for i, t in zip(ids, ts) if i >= 0],
    )


def view_set(ids, ts):
    return {(int(i), int(t)) for i, t in zip(ids, ts) if i >= 0}


class TestMergeKernel:
    def test_matches_partial_view_merge_exactly(self):
        rng = np.random.default_rng(7)
        for trial in range(500):
            c = int(rng.integers(1, 9))
            pool = int(rng.integers(2, 14))
            own_ids, own_ts = random_view(rng, c, pool)
            inc_ids, inc_ts = random_view(rng, int(rng.integers(1, 11)), pool)
            self_id = int(rng.integers(pool))

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
            # Output is freshest-first with empties at the tail.
            valid = out_ids[0] >= 0
            assert not np.any(valid[1:] & ~valid[:-1])
            vt = out_ts[0][valid]
            assert np.all(np.diff(vt) <= 0)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = int(rng.integers(1, 8))
            own_ids, own_ts = random_view(rng, c, 12)
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
            out_ids, _ = merge_candidates(cand_ids, cand_ts, selfs, c)
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

    def test_timestamps_advance_with_cycles(self):
        provider, live, alive = self.setup_overlay()
        for cycle in range(4):
            provider.begin_cycle(live, alive, float(cycle))
        assert int(provider._ts[live].max()) >= 3 * TS_SCALE


    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 14),
        c=st.integers(1, 6),
        ts_range=st.sampled_from([2, 5, 40]),
    )
    def test_pair_exchange_equals_a_merge_row_per_end(self, seed, n, c, ts_range):
        """One merge per pair == the row-per-end merge it replaced.

        Random left-compacted views, often shorter than ``c``; partners
        routinely hold stale descriptors of each other (``n`` is
        small), and the narrow timestamp ranges make equal-timestamp
        ties — among entries, and between a stale and a fresh
        descriptor — the common case.
        """
        rng = np.random.default_rng(seed)
        provider = NewscastArrayViews(n, c, rng)
        for nid in range(n):
            others = np.delete(np.arange(n), nid)
            fill = int(rng.integers(0, min(c, n - 1) + 1))
            provider._ids[nid, :fill] = rng.permutation(others)[:fill]
            provider._ts[nid, :fill] = rng.integers(0, ts_range, fill)
        self_ts = rng.integers(0, ts_range, n)
        p = int(rng.integers(1, n // 2 + 1))
        pairs = rng.permutation(n)[: 2 * p].reshape(p, 2)

        # The replaced exchange: a candidate row per end — own view,
        # the partner's view, the partner's fresh descriptor.
        before_ids, before_ts = provider._ids.copy(), provider._ts.copy()
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        srcs = np.concatenate([pairs[:, 1], pairs[:, 0]])
        want_ids, want_ts = merge_candidates(
            np.concatenate(
                [before_ids[rows], before_ids[srcs], srcs[:, None]], axis=1
            ),
            np.concatenate(
                [before_ts[rows], before_ts[srcs], self_ts[srcs][:, None]],
                axis=1,
            ),
            rows,
            c,
        )

        provider._exchange(pairs, self_ts)
        np.testing.assert_array_equal(provider._ids[rows], want_ids)
        np.testing.assert_array_equal(provider._ts[rows], want_ts)
        idle = np.setdiff1d(np.arange(n), rows)
        np.testing.assert_array_equal(provider._ids[idle], before_ids[idle])
        np.testing.assert_array_equal(provider._ts[idle], before_ts[idle])


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
        from repro.utils.exceptions import ConfigurationError

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
