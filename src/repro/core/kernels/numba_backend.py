"""Optional Numba kernel backend: compiled loops, NumPy semantics.

Importing this module requires ``numba`` (install the ``repro[numba]``
extra); :func:`repro.core.kernels.get_backend` imports it lazily and
falls back to the NumPy backend with a one-time warning when the
dependency is missing, so scenarios declaring
``kernel_backend="numba"`` still run anywhere.

The two kernels worth compiling are the ones NumPy executes as chains
of whole-array passes — the fused PSO update (ten ufunc sweeps over
``(n, k, d)`` become one cache-friendly loop) and the NEWSCAST
packed-key merge (two full-matrix sorts plus eleven whole-matrix
passes become one pass of short row sorts).  Both preserve the oracle's
results exactly:

* the fused update evaluates the same IEEE-754 double operations in
  the same order with ``fastmath=False`` (no reassociation, no FMA
  contraction) — **bit-identical** to the NumPy backend, pinned by the
  contract suite;
* the merge is pure int64 arithmetic with the same comparison-based
  sort order — identical by construction.

``batch_eval``, ``pbest_fold`` and ``scatter_min_fold`` are inherited
from the NumPy backend unchanged: objective functions are arbitrary
NumPy code a compiled backend cannot enter, and the two folds are
memory-bound single passes with nothing left to win.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.interface import BackendUnavailable
from repro.core.kernels.numpy_backend import (
    EMPTY_KEY,
    ID_BITS,
    ID_MASK,
    TS_MASK,
    NumpyKernelBackend,
)
from repro.core.kernels.workspace import Workspace

__all__ = ["NumbaKernelBackend"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit
except ImportError as exc:  # pragma: no cover - default environment
    raise BackendUnavailable(
        "numba is not installed; install the repro[numba] extra"
    ) from exc


@njit(cache=True, fastmath=False)
def _fused_update(
    pos, vel, pb, gbest, r1, r2, inertia, c1, c2,
    has_vmax, vmax, has_box, lower, upper, out_vel, out_pos,
):  # pragma: no cover - measured in CI's kernel-backends job
    m, w, d = pos.shape
    for i in range(m):
        for j in range(w):
            for t in range(d):
                x = pos[i, j, t]
                v = (
                    inertia * vel[i, j, t]
                    + (c1 * r1[i, j, t]) * (pb[i, j, t] - x)
                    + (c2 * r2[i, j, t]) * (gbest[i, 0, t] - x)
                )
                if has_vmax:
                    b = vmax[i, j, t]
                    if v < -b:
                        v = -b
                    elif v > b:
                        v = b
                out_vel[i, j, t] = v
                y = x + v
                if has_box:
                    lo = lower[i, j, t]
                    hi = upper[i, j, t]
                    if y < lo:
                        y = lo
                    elif y > hi:
                        y = hi
                out_pos[i, j, t] = y


@njit(cache=True, fastmath=False)
def _merge_rows(keys, key):  # pragma: no cover - measured in CI's kernel-backends job
    m, w = keys.shape
    for i in range(m):
        row = key[i]
        # (id field, stamp field): duplicates adjacent, freshest first.
        for j in range(w):
            kj = keys[i, j]
            row[j] = ((kj & ID_MASK) << 32) | (kj >> ID_BITS)
        row.sort()
        # Blank repeated ids, swap survivors back to view order (the
        # empty key maps to itself both ways).
        prev = np.int64(-1)
        for j in range(w):
            kj = row[j]
            id_field = kj >> 32
            if id_field == prev:
                row[j] = EMPTY_KEY
            else:
                prev = id_field
                row[j] = ((kj & TS_MASK) << ID_BITS) | id_field
        row.sort()


def _broadcast3(bound, shape):
    """Broadcast a clamp bound to the particle block's full shape."""
    return np.broadcast_to(np.asarray(bound, dtype=np.float64), shape)


class NumbaKernelBackend(NumpyKernelBackend):
    """Compiled fused-update and merge kernels; NumPy for the rest."""

    name = "numba"

    def __init__(self):
        # Surface the version for diagnostics; also proves the import.
        self.numba_version = numba.__version__

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
        shape = pos.shape
        if out_vel is None:
            out_vel = np.empty(shape)
        if out_pos is None:
            out_pos = np.empty(shape)
        dummy = _broadcast3(0.0, shape)
        _fused_update(
            np.ascontiguousarray(pos) if not pos.flags.c_contiguous else pos,
            vel,
            pb,
            gbest,
            r1,
            r2,
            float(inertia),
            float(c1),
            float(c2),
            vmax is not None,
            _broadcast3(vmax, shape) if vmax is not None else dummy,
            lower is not None,
            _broadcast3(lower, shape) if lower is not None else dummy,
            _broadcast3(upper, shape) if upper is not None else dummy,
            out_vel,
            out_pos,
        )
        return out_vel, out_pos

    def merge_candidates(self, keys, capacity, ws=None):
        ws = Workspace() if ws is None else ws
        key = ws.take("mc_key", keys.shape, np.int64)
        _merge_rows(np.ascontiguousarray(keys), key)
        return key[:, :capacity]
