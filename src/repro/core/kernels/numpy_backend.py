"""The NumPy kernel backend — the pinned correctness oracle.

Every other backend is tested against this one: the float kernels here
define the reference bit stream (they evaluate the documented
expressions in documented order through NumPy ufuncs), and the integer
merge kernel defines the reference merge exactly.  The workspace paths
(``ws=`` / ``out=`` given) decompose the same expressions into
``out=`` ufunc calls — the same IEEE-754 operations in the same order,
so the allocation-free path is bit-identical to the allocating one
(pinned by ``tests/core/test_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.interface import KernelBackend
from repro.core.kernels.workspace import Workspace

__all__ = [
    "NumpyKernelBackend",
    "scatter_min_fold",
    "merge_candidates",
    "EMPTY_ID",
    "EMPTY_TS",
    "ID_BITS",
    "ID_MASK",
    "TS_MASK",
    "DEAD_KEY",
]

#: Packed-key layout shared with :mod:`repro.topology.array_views`:
#: ids below 2**30, integer timestamps below 2**32.
EMPTY_ID = -1
EMPTY_TS = -1
ID_BITS = 30
ID_MASK = (1 << ID_BITS) - 1
TS_MASK = (1 << 32) - 1
DEAD_KEY = np.iinfo(np.int64).max


def scatter_min_fold(
    senders: np.ndarray,
    targets: np.ndarray,
    src_val: np.ndarray,
    src_pos: np.ndarray,
    cmp_val: np.ndarray,
    out_val: np.ndarray,
    out_pos: np.ndarray,
) -> int:
    """Fold concurrent anti-entropy offers onto their receivers.

    For every distinct entry of ``targets[senders]`` the single best
    (lowest ``src_val``) offer is selected and adopted iff strictly
    better than ``cmp_val`` at the receiver — the phased semantics both
    SoA gossip phases share: at most one adoption per receiver per
    call, where the reference engine's sequential delivery may count
    several.  Writes adopted values/positions into ``out_val`` /
    ``out_pos`` (which may alias ``cmp_val``) and returns the number of
    receivers that adopted.
    """
    if senders.size == 0:
        return 0
    tgt = targets[senders]
    order = np.lexsort((src_val[senders], tgt))
    tgt_sorted = tgt[order]
    src_sorted = senders[order]
    uniq_tgt, first = np.unique(tgt_sorted, return_index=True)
    best_src = src_sorted[first]
    adopt = src_val[best_src] < cmp_val[uniq_tgt]
    if not np.any(adopt):
        return 0
    receivers = uniq_tgt[adopt]
    out_val[receivers] = src_val[best_src[adopt]]
    out_pos[receivers] = src_pos[best_src[adopt]]
    return int(adopt.sum())


def merge_candidates(
    cand_ids: np.ndarray,
    cand_ts: np.ndarray,
    self_ids: np.ndarray,
    capacity: int,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """NEWSCAST-merge every row of a candidate matrix at once.

    The packed-int64 two-sort kernel (see
    :mod:`repro.topology.array_views` for the full semantics): sort by
    ``(id, ts desc)``, dedup adjacent ids keeping the freshest, re-key
    by ``(ts desc, id desc)``, sort again, truncate to ``capacity``.
    With ``ws`` the whole pipeline runs through workspace buffers and
    in-place sorts — integer arithmetic either way, so both paths
    return identical matrices.
    """
    m, w = cand_ids.shape
    if ws is None:
        invalid = (cand_ids < 0) | (cand_ids == self_ids[:, None])
        # Key 1: (id asc, ts desc).  Equal keys are identical descriptors.
        ts_comp = TS_MASK - cand_ts
        key = np.where(invalid, DEAD_KEY, (cand_ids << 32) | ts_comp)
        key = np.sort(key, axis=1)
        # Dedup: first of each id group is its freshest copy.
        ids_sorted = key >> 32
        dup = np.empty(key.shape, dtype=bool)
        dup[:, 0] = False
        dup[:, 1:] = ids_sorted[:, 1:] == ids_sorted[:, :-1]
        # Key 2: (ts desc, id desc) over survivors — truncation order.
        key2 = ((key & TS_MASK) << ID_BITS) | (ID_MASK - (ids_sorted & ID_MASK))
        key2[dup | (key == DEAD_KEY)] = DEAD_KEY
        key2 = np.sort(key2, axis=1)[:, :capacity]
        dead = key2 == DEAD_KEY
        out_ids = np.where(dead, EMPTY_ID, ID_MASK - (key2 & ID_MASK))
        out_ts = np.where(dead, EMPTY_TS, TS_MASK - (key2 >> ID_BITS))
        return out_ids, out_ts

    # Workspace path: the same integer pipeline through out= ufuncs and
    # in-place row sorts — no new arrays in steady state.
    key = ws.take("mc_key", (m, w), np.int64)
    tmp = ws.take("mc_tmp", (m, w), np.int64)
    mask = ws.take("mc_mask", (m, w), bool)
    dead = ws.take("mc_dead", (m, w), bool)
    # invalid = (ids < 0) | (ids == self)
    np.less(cand_ids, 0, out=mask)
    np.equal(cand_ids, self_ids[:, None], out=dead)
    np.logical_or(mask, dead, out=mask)
    # key1 = (id << 32) | (TS_MASK - ts); invalid -> DEAD_KEY
    np.subtract(TS_MASK, cand_ts, out=key)
    np.left_shift(cand_ids, 32, out=tmp)
    np.bitwise_or(key, tmp, out=key)
    np.copyto(key, DEAD_KEY, where=mask)
    key.sort(axis=1)
    # ids_sorted in tmp; dup mask; dead-key carryover
    np.right_shift(key, 32, out=tmp)
    mask[:, 0] = False
    np.equal(tmp[:, 1:], tmp[:, :-1], out=mask[:, 1:])
    np.equal(key, DEAD_KEY, out=dead)
    np.logical_or(mask, dead, out=mask)
    # key2 = ((key1 & TS_MASK) << ID_BITS) | (ID_MASK - (ids & ID_MASK))
    np.bitwise_and(key, TS_MASK, out=key)
    np.left_shift(key, ID_BITS, out=key)
    np.bitwise_and(tmp, ID_MASK, out=tmp)
    np.subtract(ID_MASK, tmp, out=tmp)
    np.bitwise_or(key, tmp, out=key)
    np.copyto(key, DEAD_KEY, where=mask)
    key.sort(axis=1)
    capacity = min(capacity, w)  # match the pure path's slice semantics
    k2 = key[:, :capacity]
    out_ids = ws.take("mc_out_ids", (m, capacity), np.int64)
    out_ts = ws.take("mc_out_ts", (m, capacity), np.int64)
    dead_c = dead[:, :capacity]
    np.equal(k2, DEAD_KEY, out=dead_c)
    # out_ids = ID_MASK - (k2 & ID_MASK); dead -> -1
    np.bitwise_and(k2, ID_MASK, out=out_ids)
    np.subtract(ID_MASK, out_ids, out=out_ids)
    np.copyto(out_ids, EMPTY_ID, where=dead_c)
    # out_ts = TS_MASK - (k2 >> ID_BITS); dead -> -1
    np.right_shift(k2, ID_BITS, out=out_ts)
    np.subtract(TS_MASK, out_ts, out=out_ts)
    np.copyto(out_ts, EMPTY_TS, where=dead_c)
    return out_ids, out_ts


#: The fused update runs its pass sequence over row blocks of about
#: this many elements per operand (160 KB of doubles): a block's nine
#: operands and scratch stay cache-resident between the eleven passes
#: instead of streaming the whole ``(m, w, d)`` network through memory
#: once per pass.  Rows are independent, so blocking cannot change a
#: bit.  Measured flat within 5 % from 8 000 to 28 000 elements.
BLOCK_ELEMENTS = 20_000


def _rows(operand, m: int, block: slice):
    """``block`` of a per-row operand; broadcast operands pass through."""
    if np.ndim(operand) == 3 and operand.shape[0] == m:
        return operand[block]
    return operand


class NumpyKernelBackend(KernelBackend):
    """Plain-NumPy kernels: the default backend and the contract oracle."""

    name = "numpy"

    def fused_pso_update(
        self,
        pos,
        vel,
        pb,
        gbest,
        r1,
        r2,
        inertia,
        c1,
        c2,
        vmax=None,
        lower=None,
        upper=None,
        out_vel=None,
        out_pos=None,
        ws=None,
    ):
        m, w, d = pos.shape
        if out_vel is None:
            out_vel = np.empty((m, w, d))
        if out_pos is None:
            out_pos = np.empty((m, w, d))
        step = max(1, BLOCK_ELEMENTS // max(1, w * d))
        scratch = (min(step, m), w, d)
        if ws is not None:
            t1 = ws.take("fpu_t1", scratch)
            t2 = ws.take("fpu_t2", scratch)
        else:
            t1 = np.empty(scratch)
            t2 = np.empty(scratch)
        # v' = inertia*vel + (c1*r1)*(pb - pos) + (c2*r2)*(gbest - pos),
        # decomposed left-to-right so each element sees the exact IEEE
        # operation sequence of the expression form.
        for lo in range(0, m, step):
            blk = slice(lo, lo + step)
            x, v_out, x_out = pos[blk], out_vel[blk], out_pos[blk]
            a, b = t1[: x.shape[0]], t2[: x.shape[0]]
            np.subtract(pb[blk], x, out=a)
            np.multiply(c1, r1[blk], out=b)
            np.multiply(b, a, out=a)
            np.multiply(inertia, vel[blk], out=v_out)
            np.add(v_out, a, out=v_out)
            np.subtract(gbest[blk], x, out=a)
            np.multiply(c2, r2[blk], out=b)
            np.multiply(b, a, out=a)
            np.add(v_out, a, out=v_out)
            if vmax is not None:
                bound = _rows(vmax, m, blk)
                np.clip(v_out, -bound, bound, out=v_out)
            np.add(x, v_out, out=x_out)
            if lower is not None:
                np.clip(
                    x_out, _rows(lower, m, blk), _rows(upper, m, blk), out=x_out
                )
        return out_vel, out_pos

    def pbest_fold(
        self,
        values,
        pbv,
        pb,
        pos,
        participating=None,
        out_pbv=None,
        out_pb=None,
        ws=None,
    ):
        if ws is not None:
            improved = ws.take("pbf_improved", values.shape, bool)
        else:
            improved = np.empty(values.shape, dtype=bool)
        np.less(values, pbv, out=improved)
        if participating is not None:
            np.logical_and(improved, participating, out=improved)
        if out_pbv is None:
            out_pbv = np.empty(pbv.shape)
        if out_pb is None:
            out_pb = np.empty(pb.shape)
        np.copyto(out_pbv, pbv)
        np.copyto(out_pbv, values, where=improved)
        np.copyto(out_pb, pb)
        np.copyto(out_pb, pos, where=improved[:, :, None])
        return out_pbv, out_pb

    def batch_eval(self, functions, node_group, live, pos, out=None, ctx=None):
        m, w, d = pos.shape
        if out is None:
            out = np.empty((m, w))

        def evaluate(fn, points):
            # ctx=None is the pinned static path; with a context the
            # objective is a Problem evaluated as of the virtual clock.
            if ctx is None:
                return fn.batch(points)
            return fn.batch_at(points, ctx)

        if node_group is None:
            out[...] = evaluate(functions[0], pos.reshape(-1, d)).reshape(m, w)
            return out
        groups = node_group[live]
        for gi, fn in enumerate(functions):
            rows = np.nonzero(groups == gi)[0]
            if rows.size:
                out[rows] = evaluate(fn, pos[rows].reshape(-1, d)).reshape(
                    rows.size, w
                )
        return out

    def scatter_min_fold(
        self, senders, targets, src_val, src_pos, cmp_val, out_val, out_pos
    ):
        return scatter_min_fold(
            senders, targets, src_val, src_pos, cmp_val, out_val, out_pos
        )

    def merge_candidates(self, cand_ids, cand_ts, self_ids, capacity, ws=None):
        return merge_candidates(cand_ids, cand_ts, self_ids, capacity, ws=ws)
