"""The SoA engines' four hot kernels, as one NumPy class.

Every method is a pure array transformation — no engine state, no RNG,
no protocol logic — so randomness and protocol decisions stay in the
engine.  Float kernels evaluate their documented expression in the
documented operation order with IEEE-754 double arithmetic; the
integer merge is exact.  The workspace paths (``ws=`` / ``out=``
given) decompose the same expressions into ``out=`` ufunc calls — the
same operations in the same order, so the allocation-free path is
bit-identical to the allocating one (pinned by
``tests/core/test_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.workspace import Workspace

__all__ = [
    "KernelBackend",
    "EMPTY_KEY",
    "ID_BITS",
    "ID_MASK",
    "MAX_ID",
    "TS_MASK",
]

#: Packed-descriptor layout (see :mod:`repro.topology.array_views`):
#: ``(TS_MASK - ts) << ID_BITS | (MAX_ID - id)`` — a 32-bit stamp field
#: over a 31-bit id field, both complemented so ascending keys read
#: freshest first, equal stamps by descending id.  The empty slot is
#: the largest int64: it sorts last and both field swaps of the merge
#: kernel map it to itself.
ID_BITS = 31
ID_MASK = (1 << ID_BITS) - 1
MAX_ID = ID_MASK - 1
TS_MASK = (1 << 32) - 1
EMPTY_KEY = np.iinfo(np.int64).max

#: The fused update runs its pass sequence over row blocks of about
#: this many elements per operand (160 KB of doubles): a block's nine
#: operands and scratch stay cache-resident between the eleven passes
#: instead of streaming the whole ``(m, w, d)`` network through memory
#: once per pass.  The ``m`` rows split into that many equal blocks,
#: rounded, so a 256-row draw block at ``w·d = 80`` is one pass, not
#: 250 rows and a 6-row tail.  Rows are independent, so blocking
#: cannot change a bit.  Measured flat within 5 % from 8 000 to 28 000
#: elements.
BLOCK_ELEMENTS = 20_000


def _rows(operand, m: int, block: slice):
    """``block`` of a per-row operand; broadcast operands pass through."""
    if np.ndim(operand) == 3 and operand.shape[0] == m:
        return operand[block]
    return operand


class KernelBackend:
    """Hot-path kernels of the SoA engines.

    Methods accept optional ``out`` buffers and an optional
    :class:`~repro.core.kernels.workspace.Workspace` for internal
    scratch; with both provided a call performs no new large-array
    allocations (the steady-state contract pinned by
    ``tests/core/test_fastpath_alloc.py``).  With neither, results are
    freshly allocated — the convenient form for tests and cold paths.
    The class holds no state, so a subclass may wrap another instance
    (a timing proxy) without calling ``super().__init__``.
    """

    name = "numpy"

    def fused_pso_update(
        self,
        pos: np.ndarray,
        vel: np.ndarray,
        pb: np.ndarray,
        gbest: np.ndarray,
        r1: np.ndarray,
        r2: np.ndarray,
        inertia: float,
        c1: float,
        c2: float,
        vmax: np.ndarray | None = None,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
        out_vel: np.ndarray | None = None,
        out_pos: np.ndarray | None = None,
        ws: Workspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused velocity/position/clamp update over ``(m, w, d)`` particles.

        Computes, in exactly this operation order per element::

            v' = inertia*vel + (c1*r1)*(pb - pos) + (c2*r2)*(gbest - pos)
            v' = clip(v', -vmax, vmax)        # iff vmax given
            x' = pos + v'
            x' = clip(x', lower, upper)       # iff lower/upper given

        ``gbest`` has shape ``(m, 1, d)`` (broadcast over particles);
        ``vmax``/``lower``/``upper`` broadcast against ``(m, w, d)``.
        Returns ``(v', x')``.  ``out_vel`` may be ``vel`` and
        ``out_pos`` may be ``pos`` (the in-place update): every element
        is read before it is written, so the bits do not change; every
        one is written, so a caller keeping some particles unmoved holds
        them aside and restores them.  Any other input is only read.
        """
        m, w, d = pos.shape
        if out_vel is None:
            out_vel = np.empty((m, w, d))
        if out_pos is None:
            out_pos = np.empty((m, w, d))
        step = max(1, -(-m // max(1, round(m * w * d / BLOCK_ELEMENTS))))
        ws = Workspace() if ws is None else ws
        t1, t2 = (ws.take(name, (min(step, m), w, d)) for name in ("fpu_t1", "fpu_t2"))
        # Decomposed left-to-right so each element sees the exact IEEE
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
        values: np.ndarray,
        pbv: np.ndarray,
        pb: np.ndarray,
        pos: np.ndarray,
        participating: np.ndarray | None = None,
        out_pbv: np.ndarray | None = None,
        out_pb: np.ndarray | None = None,
        ws: Workspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-particle best fold: adopt ``values``/``pos`` where improved.

        ``improved = (values < pbv) & participating``; returns
        ``(where(improved, values, pbv), where(improved[..., None],
        pos, pb))``.  ``out_pbv`` may be ``pbv`` and ``out_pb`` may be
        ``pb`` (the in-place fold): the full copy is then skipped and
        only improved entries are written.  Any other input is only
        read.
        """
        ws = Workspace() if ws is None else ws
        improved = ws.take("pbf_improved", values.shape, bool)
        np.less(values, pbv, out=improved)
        if participating is not None:
            np.logical_and(improved, participating, out=improved)
        if out_pbv is None:
            out_pbv = np.empty(pbv.shape)
        if out_pb is None:
            out_pb = np.empty(pb.shape)
        if out_pbv is not pbv:
            np.copyto(out_pbv, pbv)
        np.copyto(out_pbv, values, where=improved)
        if out_pb is not pb:
            np.copyto(out_pb, pb)
        np.copyto(out_pb, pos, where=improved[:, :, None])
        return out_pbv, out_pb

    def batch_eval(
        self,
        functions: list,
        node_group: np.ndarray | None,
        live: np.ndarray,
        pos: np.ndarray,
        out: np.ndarray | None = None,
        ctx=None,
    ) -> np.ndarray:
        """Evaluate ``(m, w, d)`` positions in one batched call of ``functions[0]``.

        Returns the ``(m, w)`` objective values.  ``node_group`` and
        ``live`` (the SoA slot of each row of ``pos``) are unread; they
        keep the signature that timing proxies forward positionally.

        ``ctx`` is the time-aware dispatch seam: ``None`` (the static
        case) calls ``fn.batch(points)``.  With an
        :class:`~repro.functions.problem.EvalContext`, ``functions``
        holds a :class:`~repro.functions.problem.Problem`, evaluated
        via ``fn.batch_at(points, ctx)`` — the landscape as of the
        engine's virtual clock.
        """
        m, w, d = pos.shape
        if out is None:
            out = np.empty((m, w))
        fn, points = functions[0], pos.reshape(-1, d)
        values = fn.batch(points) if ctx is None else fn.batch_at(points, ctx)
        out[...] = values.reshape(m, w)
        return out

    def scatter_min_fold(
        self,
        senders: np.ndarray,
        targets: np.ndarray,
        src_val: np.ndarray,
        src_pos: np.ndarray,
        cmp_val: np.ndarray,
        out_val: np.ndarray,
        out_pos: np.ndarray,
    ) -> int:
        """Anti-entropy gossip reduction: best offer per receiver wins.

        For every distinct entry of ``targets[senders]`` the single best
        (lowest ``src_val``) offer is selected and adopted iff strictly
        better than ``cmp_val`` at the receiver — the phased semantics
        both SoA gossip phases share: at most one adoption per receiver
        per call, where the reference engine's sequential delivery may
        count several.  Writes adopted values/positions into
        ``out_val`` / ``out_pos`` (which may alias ``cmp_val``) and
        returns the number of receivers that adopted.
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
        self, keys: np.ndarray, capacity: int, ws: Workspace | None = None
    ) -> np.ndarray:
        """NEWSCAST merge of every row of an ``(m, w)`` packed-key matrix.

        Keys are the ``int64`` descriptors of
        :mod:`repro.topology.array_views` (any order, empty slots
        anywhere).  Returns ``(m, min(capacity, w))`` keys: per row the
        freshest copy of each id, ascending — freshest first, equal
        stamps by descending id, empty slots last.  ``keys`` is only
        read.  The result is a view of a workspace buffer, valid until
        the next merge on the same ``ws`` (``None``: a private one);
        callers copy or scatter it out.

        Swap each key's two fields so the id field leads (ids group,
        freshest copy first), row sort, blank every entry whose left
        neighbour carries the same id, swap back, row sort: the first
        ``capacity`` columns are the merged view.
        """
        ws = Workspace() if ws is None else ws
        m, w = keys.shape
        key = ws.take("mc_key", (m, w), np.int64)
        tmp = ws.take("mc_tmp", (m, w), np.int64)
        dup = ws.take("mc_dup", (m, w), bool)
        # (id field, stamp field): duplicates adjacent, freshest first.
        np.right_shift(keys, ID_BITS, out=tmp)
        np.bitwise_and(keys, ID_MASK, out=key)
        np.left_shift(key, 32, out=key)
        np.bitwise_or(key, tmp, out=key)
        key.sort(axis=1)
        # Adjacent compare on the flat buffer (one contiguous pass); a
        # row's first entry has no left neighbour in its own row.
        np.right_shift(key, 32, out=tmp)
        flat_ids, flat_dup = tmp.reshape(-1), dup.reshape(-1)
        np.equal(flat_ids[1:], flat_ids[:-1], out=flat_dup[1:])
        dup[:, 0] = False
        # Back to (stamp field, id field); duplicates ORed to the empty key.
        np.bitwise_and(key, TS_MASK, out=key)
        np.left_shift(key, ID_BITS, out=key)
        np.bitwise_or(key, tmp, out=key)
        np.multiply(dup, EMPTY_KEY, out=tmp)
        np.bitwise_or(key, tmp, out=key)
        key.sort(axis=1)
        return key[:, :capacity]
