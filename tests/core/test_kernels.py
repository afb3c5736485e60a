"""Kernel lookup, workspace, and the kernels' contracts.

Float kernels must be bit-identical to their documented expressions
(the strict-RNG reproducibility guarantee), the integer merge must
match a plain-Python reference merge exactly, and every kernel's
workspace path must equal its allocating path.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.kernels import KernelBackend, Workspace, get_backend
from repro.core.kernels import numpy_backend
from repro.core.kernels.numpy_backend import EMPTY_KEY
from repro.functions.base import available_functions
from repro.topology.array_views import pack_views, unpack_views
from repro.utils.exceptions import ConfigurationError


@pytest.fixture
def backend():
    return get_backend("numpy")


# -- lookup --------------------------------------------------------------------


class TestRegistry:
    def test_default_is_numpy(self):
        b = get_backend()
        assert isinstance(b, KernelBackend)
        assert b.name == "numpy"

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_ready_instance_passes_through(self):
        b = KernelBackend()
        assert get_backend(b) is b

    def test_unknown_name_raises_naming_registered(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_numba_is_an_unknown_name(self):
        """``"numba"`` once fell back to NumPy with a warning; it is now
        an unknown name like any other."""
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("numba")


# -- workspace -----------------------------------------------------------------


class TestWorkspace:
    def test_take_reuses_buffer(self):
        ws = Workspace()
        a = ws.take("x", (8, 3))
        assert a.shape == (8, 3) and ws.allocations == 1
        b = ws.take("x", (8, 3))
        assert b.base is a.base or b is a
        assert ws.allocations == 1

    def test_smaller_lead_is_a_view(self):
        ws = Workspace()
        ws.take("x", (10, 4))
        small = ws.take("x", (6, 4))
        assert small.shape == (6, 4)
        assert ws.allocations == 1

    def test_lead_growth_is_geometric(self):
        ws = Workspace()
        ws.take("x", (10,))
        grown = ws.take("x", (11,))
        assert grown.shape == (11,)
        assert ws.allocations == 2
        assert ws.take("x", (20,)).shape == (20,)  # within 2*10 capacity
        assert ws.allocations == 2

    def test_trailing_or_dtype_change_reallocates(self):
        ws = Workspace()
        ws.take("x", (4, 2))
        ws.take("x", (4, 3))
        assert ws.allocations == 2
        ws.take("x", (4, 3), np.int64)
        assert ws.allocations == 3

    def test_repeat_request_is_a_view_of_the_same_buffer(self):
        ws = Workspace()
        a = ws.take("x", (5, 2, 3))
        a[...] = 7.0
        b = ws.take("x", (5, 2, 3))
        assert b.base is a.base and np.shares_memory(a, b)
        assert (b == 7.0).all()
        assert ws.allocations == 1

    def test_an_outgrown_buffer_is_dropped_before_the_next_is_allocated(self):
        ws = Workspace()
        tracemalloc.start()
        try:
            old = weakref.ref(ws.take("x", (1_000_000,)).base)
            ws.take("x", (1_000_001,))  # grows to 2 000 000 doubles
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert old() is None
        assert peak < 2_000_000 * 8 + 1_000_000  # never old + new at once
        assert ws.nbytes() == 2_000_000 * 8

    def test_only_real_allocations_count(self):
        ws = Workspace()
        ws.take("x", (4, 3))
        # The same request spelled with NumPy ints and a dtype instance.
        ws.take("x", (np.int64(4), np.int64(3)), np.dtype(np.float64))
        ws.take("x", (2, 3))
        assert ws.allocations == 1
        ws.take("x", (4, 3), bool)
        ws.take("x", (4, 3), bool)
        assert ws.allocations == 2

    def test_diagnostics(self):
        ws = Workspace()
        ws.take("a", (2, 2))
        ws.take("b", (3,), np.int64)
        assert set(ws.names()) == {"a", "b"}
        assert ws.nbytes() == 4 * 8 + 3 * 8


# -- kernel contracts ----------------------------------------------------------


def _update_inputs(seed, m=7, k=5, d=4):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(m, k, d))
    vel = rng.normal(size=(m, k, d))
    pb = rng.normal(size=(m, k, d))
    gbest = rng.normal(size=(m, 1, d))
    r1 = rng.random((m, k, d))
    r2 = rng.random((m, k, d))
    return pos, vel, pb, gbest, r1, r2


def _expression_oracle(pos, vel, pb, gbest, r1, r2, inertia, c1, c2,
                       vmax=None, lower=None, upper=None):
    """The documented update, as the pre-PR engine expressed it."""
    new_vel = (inertia * vel + (c1 * r1) * (pb - pos)
               + (c2 * r2) * (gbest - pos))
    if vmax is not None:
        new_vel = np.clip(new_vel, -vmax, vmax)
    new_pos = pos + new_vel
    if lower is not None:
        new_pos = np.clip(new_pos, lower, upper)
    return new_vel, new_pos


class TestFusedUpdateContract:
    @pytest.mark.parametrize("bounds", ["none", "vmax", "vmax+box"])
    def test_bitwise_equal_to_expression_oracle(self, backend, bounds):
        pos, vel, pb, gbest, r1, r2 = _update_inputs(3)
        kw = {}
        if bounds != "none":
            kw["vmax"] = np.full((1, 1, pos.shape[2]), 0.7)
        if bounds == "vmax+box":
            kw["lower"], kw["upper"] = -1.5, 1.5
        want_vel, want_pos = _expression_oracle(
            pos, vel, pb, gbest, r1, r2, 0.72, 1.49, 1.51, **kw
        )
        got_vel, got_pos = backend.fused_pso_update(
            pos, vel, pb, gbest, r1, r2, 0.72, 1.49, 1.51, **kw
        )
        # Bit identity, not closeness: the strict-RNG contract.
        np.testing.assert_array_equal(got_vel, want_vel, strict=True)
        np.testing.assert_array_equal(got_pos, want_pos, strict=True)

    def test_workspace_path_bitwise_equals_allocating_path(self, backend):
        pos, vel, pb, gbest, r1, r2 = _update_inputs(4)
        args = (pos, vel, pb, gbest, r1, r2, 0.9, 2.0, 2.0)
        plain_vel, plain_pos = backend.fused_pso_update(*args, vmax=0.5)
        ws = Workspace()
        out_vel = ws.take("v", pos.shape)
        out_pos = ws.take("p", pos.shape)
        ws_vel, ws_pos = backend.fused_pso_update(
            *args, vmax=0.5, out_vel=out_vel, out_pos=out_pos, ws=ws
        )
        np.testing.assert_array_equal(ws_vel, plain_vel, strict=True)
        np.testing.assert_array_equal(ws_pos, plain_pos, strict=True)
        assert ws_vel is out_vel and ws_pos is out_pos

    @pytest.mark.parametrize("m", [0, 2, 3, 4, 7])
    @pytest.mark.parametrize("bounds", ["broadcast", "per-row"])
    @pytest.mark.parametrize("arena", [False, True])
    def test_row_blocks_bitwise_equal_whole_array_expression(
        self, backend, monkeypatch, m, bounds, arena
    ):
        """Row-blocked passes == the unblocked expression, at every
        block boundary: no rows, under one block, exactly one block,
        one row over, several blocks with a short tail (3-row blocks).
        Per-row ``vmax``/box rows are sliced with their block;
        broadcast ones pass through whole."""
        k, d = 5, 4
        monkeypatch.setattr(numpy_backend, "BLOCK_ELEMENTS", 3 * k * d)
        pos, vel, pb, gbest, r1, r2 = _update_inputs(8, m=m, k=k, d=d)
        rng = np.random.default_rng(9)
        if bounds == "broadcast":
            kw = dict(vmax=np.full(d, 0.7), lower=np.full(d, -1.5),
                      upper=np.full(d, 1.5))
        else:
            kw = dict(vmax=rng.uniform(0.3, 0.9, size=(m, 1, d)),
                      lower=rng.uniform(-2.0, -1.0, size=(m, 1, d)),
                      upper=rng.uniform(1.0, 2.0, size=(m, 1, d)))
        want_vel, want_pos = _expression_oracle(
            pos, vel, pb, gbest, r1, r2, 0.72, 1.49, 1.51, **kw
        )
        ws = Workspace() if arena else None
        got_vel, got_pos = backend.fused_pso_update(
            pos, vel, pb, gbest, r1, r2, 0.72, 1.49, 1.51, ws=ws, **kw
        )
        np.testing.assert_array_equal(got_vel, want_vel, strict=True)
        np.testing.assert_array_equal(got_pos, want_pos, strict=True)

    @pytest.mark.parametrize("bounds", ["none", "vmax+box"])
    def test_in_place_bitwise_equals_out_of_place(self, backend, bounds):
        """``out_vel=vel, out_pos=pos``: the steady sweep's in-place form."""
        pos, vel, pb, gbest, r1, r2 = _update_inputs(6, m=9)
        kw = {} if bounds == "none" else dict(vmax=0.7, lower=-1.5, upper=1.5)
        args = (pb, gbest, r1, r2, 0.72, 1.49, 1.51)
        want_vel, want_pos = backend.fused_pso_update(pos, vel, *args, **kw)
        got_vel, got_pos = backend.fused_pso_update(
            pos, vel, *args, out_vel=vel, out_pos=pos, ws=Workspace(), **kw
        )
        assert got_vel is vel and got_pos is pos
        np.testing.assert_array_equal(vel, want_vel, strict=True)
        np.testing.assert_array_equal(pos, want_pos, strict=True)

    def test_inputs_not_mutated(self, backend):
        pos, vel, pb, gbest, r1, r2 = _update_inputs(5)
        copies = [a.copy() for a in (pos, vel, pb, gbest, r1, r2)]
        backend.fused_pso_update(pos, vel, pb, gbest, r1, r2, 0.7, 1.5, 1.5,
                                 vmax=1.0, lower=-2.0, upper=2.0)
        for arr, ref in zip((pos, vel, pb, gbest, r1, r2), copies):
            np.testing.assert_array_equal(arr, ref)


class TestPbestFoldContract:
    def test_matches_where_semantics(self, backend):
        rng = np.random.default_rng(6)
        m, k, d = 6, 4, 3
        values = rng.random((m, k))
        pbv = rng.random((m, k))
        pb = rng.normal(size=(m, k, d))
        pos = rng.normal(size=(m, k, d))
        participating = rng.random((m, k)) < 0.6
        improved = (values < pbv) & participating
        want_pbv = np.where(improved, values, pbv)
        want_pb = np.where(improved[:, :, None], pos, pb)
        got_pbv, got_pb = backend.pbest_fold(
            values, pbv, pb, pos, participating
        )
        np.testing.assert_array_equal(got_pbv, want_pbv, strict=True)
        np.testing.assert_array_equal(got_pb, want_pb, strict=True)

    def test_workspace_path_equals_plain(self, backend):
        rng = np.random.default_rng(7)
        m, k, d = 5, 3, 2
        values, pbv = rng.random((m, k)), rng.random((m, k))
        pb, pos = rng.normal(size=(m, k, d)), rng.normal(size=(m, k, d))
        plain = backend.pbest_fold(values, pbv, pb, pos)
        ws = Workspace()
        out = backend.pbest_fold(
            values, pbv, pb, pos,
            out_pbv=ws.take("pbv", (m, k)), out_pb=ws.take("pb", (m, k, d)),
            ws=ws,
        )
        np.testing.assert_array_equal(out[0], plain[0], strict=True)
        np.testing.assert_array_equal(out[1], plain[1], strict=True)


    @pytest.mark.parametrize("partial", [False, True])
    def test_in_place_bitwise_equals_out_of_place(self, backend, partial):
        """``out_pbv=pbv, out_pb=pb``: only improved entries are written."""
        rng = np.random.default_rng(8)
        m, k, d = 6, 4, 3
        values, pbv = rng.random((m, k)), rng.random((m, k))
        pb, pos = rng.normal(size=(m, k, d)), rng.normal(size=(m, k, d))
        participating = rng.random((m, k)) < 0.6 if partial else None
        want_pbv, want_pb = backend.pbest_fold(
            values, pbv, pb, pos, participating
        )
        got_pbv, got_pb = backend.pbest_fold(
            values, pbv, pb, pos, participating, out_pbv=pbv, out_pb=pb,
            ws=Workspace(),
        )
        assert got_pbv is pbv and got_pb is pb
        np.testing.assert_array_equal(pbv, want_pbv, strict=True)
        np.testing.assert_array_equal(pb, want_pb, strict=True)


def _reference_merge(keys, capacity):
    """Row by row in plain Python: the freshest copy of each id,
    freshest first, equal stamps by descending id, empty slots last."""
    ids, ts = unpack_views(keys)
    width = min(capacity, keys.shape[1])
    out_ids = np.full((keys.shape[0], width), -1, dtype=np.int64)
    out_ts = np.full((keys.shape[0], width), -1, dtype=np.int64)
    for r in range(keys.shape[0]):
        fresh = {}
        for i, t in zip(ids[r].tolist(), ts[r].tolist()):
            if i >= 0:
                fresh[i] = max(t, fresh.get(i, t))
        row = sorted(fresh.items(), key=lambda it: (-it[1], -it[0]))[:width]
        out_ids[r, : len(row)] = [i for i, _ in row]
        out_ts[r, : len(row)] = [t for _, t in row]
    return pack_views(out_ids, out_ts)


class TestMergeContract:
    def _candidates(self, seed, m=40, w=17, id_pool=25):
        rng = np.random.default_rng(seed)
        ids = rng.integers(-1, id_pool, size=(m, w)).astype(np.int64)
        ts = rng.integers(0, 1 << 20, size=(m, w)).astype(np.int64)
        return pack_views(ids, ts)

    @pytest.mark.parametrize("capacity", [1, 5, 17, 30])
    def test_matches_oracle_merge(self, backend, capacity):
        keys = self._candidates(11)
        got = backend.merge_candidates(keys, capacity)
        assert got.shape == (40, min(capacity, 17))
        np.testing.assert_array_equal(
            got, _reference_merge(keys, capacity), strict=True
        )

    def test_workspace_path_equals_private_workspace(self, backend):
        keys = self._candidates(12)
        before = keys.copy()
        plain = backend.merge_candidates(keys, 8).copy()
        ws = Workspace()
        wsed = backend.merge_candidates(keys, 8, ws=ws)
        np.testing.assert_array_equal(wsed, plain, strict=True)
        np.testing.assert_array_equal(keys, before)  # input is only read
        # Steady state: a second call with the same shapes allocates
        # nothing new.
        allocations = ws.allocations
        backend.merge_candidates(keys, 8, ws=ws)
        assert ws.allocations == allocations

    def test_duplicate_ids_keep_freshest(self, backend):
        ids = np.array([[3, 3, 5, -1, 3]], dtype=np.int64)
        ts = np.array([[10, 40, 7, 99, 20]], dtype=np.int64)
        out_ids, out_ts = unpack_views(
            backend.merge_candidates(pack_views(ids, ts), 4)
        )
        assert out_ids[0].tolist() == [3, 5, -1, -1]
        assert out_ts[0].tolist() == [40, 7, -1, -1]

    def test_rows_do_not_dedup_across_their_boundary(self, backend):
        # The adjacent compare runs on the flat buffer, and sorted by id
        # field (descending id) id 3 ends row 0 and starts row 1.
        ids = np.array([[9, 3], [3, 1]], dtype=np.int64)
        ts = np.array([[5, 5], [5, 5]], dtype=np.int64)
        out_ids, _ = unpack_views(
            backend.merge_candidates(pack_views(ids, ts), 2)
        )
        assert out_ids.tolist() == [[9, 3], [3, 1]]

    def test_all_empty_rows_stay_empty(self, backend):
        keys = np.full((3, 5), EMPTY_KEY, dtype=np.int64)
        assert np.all(backend.merge_candidates(keys, 4) == EMPTY_KEY)


class TestScatterMinFoldContract:
    def test_matches_sequential_fold(self, backend):
        rng = np.random.default_rng(21)
        n, d = 30, 4
        senders = np.flatnonzero(rng.random(n) < 0.7)
        targets = rng.integers(0, n, size=n)
        # Distinct values: ties would make "best sender" ambiguous.
        src_val = rng.permutation(n).astype(float)
        src_pos = rng.normal(size=(n, d))
        cmp_val = rng.permutation(n).astype(float) + 0.5
        out_val = cmp_val.copy()
        out_pos = np.zeros((n, d))

        want_val = cmp_val.copy()
        want_pos = out_pos.copy()
        want_adoptions = 0
        for t in np.unique(targets[senders]):
            offers = senders[targets[senders] == t]
            best = offers[np.argmin(src_val[offers])]
            if src_val[best] < cmp_val[t]:
                want_val[t] = src_val[best]
                want_pos[t] = src_pos[best]
                want_adoptions += 1

        adopted = backend.scatter_min_fold(
            senders, targets, src_val, src_pos, cmp_val, out_val, out_pos
        )
        assert adopted == want_adoptions
        np.testing.assert_array_equal(out_val, want_val)
        np.testing.assert_array_equal(out_pos, want_pos)

    def test_empty_senders_is_noop(self, backend):
        out_val = np.array([1.0, 2.0])
        out_pos = np.zeros((2, 3))
        adopted = backend.scatter_min_fold(
            np.empty(0, dtype=np.int64), np.array([0, 1]),
            np.array([0.0, 0.0]), np.zeros((2, 3)),
            out_val.copy(), out_val, out_pos,
        )
        assert adopted == 0
        np.testing.assert_array_equal(out_val, [1.0, 2.0])


class TestBatchEvalContract:
    def test_homogeneous_matches_function_batch(self, backend):
        from repro.functions.base import get_function

        fn = get_function("sphere")
        rng = np.random.default_rng(30)
        pos = rng.normal(size=(6, 4, fn.dimension))
        want = fn.batch(pos.reshape(-1, fn.dimension)).reshape(6, 4)
        got = backend.batch_eval(
            [fn], None, np.arange(6), pos
        )
        np.testing.assert_array_equal(got, want, strict=True)

    @pytest.mark.parametrize("name", available_functions())
    def test_every_function_matches_its_batch(self, backend, name):
        """One batched call equals the function's own ``batch``, row
        for row, on points inside and outside its box."""
        from repro.functions.base import get_function

        fn = get_function(name)
        rng = np.random.default_rng(33)
        pos = rng.uniform(2 * fn.lower, 2 * fn.upper, size=(5, 3, fn.dimension))
        got = backend.batch_eval([fn], None, np.arange(5), pos)
        for row in range(5):
            np.testing.assert_array_equal(got[row], fn.batch(pos[row]))

    def test_node_group_and_live_are_unread(self, backend):
        """The kept signature's ``node_group`` and ``live`` change nothing."""
        from repro.functions.base import get_function

        fn = get_function("rastrigin")
        pos = np.random.default_rng(34).normal(size=(4, 3, fn.dimension))
        plain = backend.batch_eval([fn], None, np.arange(4), pos)
        scrambled = backend.batch_eval(
            [fn], np.array([3, 0, 2, 1]), np.array([9, 7, 5, 3]), pos
        )
        np.testing.assert_array_equal(scrambled, plain, strict=True)

    def test_out_buffer_is_used(self, backend):
        from repro.functions.base import get_function

        fn = get_function("sphere")
        pos = np.random.default_rng(32).normal(size=(3, 2, fn.dimension))
        out = np.empty((3, 2))
        got = backend.batch_eval([fn], None, np.arange(3), pos, out=out)
        assert got is out
