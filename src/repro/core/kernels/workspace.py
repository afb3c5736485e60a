"""Preallocated scratch arenas for the SoA hot paths.

Every cycle of the fast engine used to allocate its large temporaries
fresh — the fused update's ``(n, k, d)`` intermediates, the NEWSCAST
exchange's ``(p, 2c+2)`` packed candidate and key matrices, the gossip
phase's snapshot vectors — roughly 1 ms/cycle of allocator traffic at
``n = 1000`` (``BENCH_4.json``).  A :class:`Workspace` replaces that
with named, capacity-sized buffers reused across cycles: ``take``
returns a leading-axis view of a persistent buffer, growing it
geometrically when a request outgrows it, so a steady-state cycle
(fixed population, fixed chunk width) performs **zero** new
large-array allocations — the contract pinned by
``tests/core/test_fastpath_alloc.py``.

Ownership discipline
--------------------

A buffer named ``x`` is valid from one ``take("x", ...)`` to the next:
callers must not hold a view across takes of the same name.  The
particle state itself never lives here: every full sweep (churned or
not; frozen particles held aside) writes into the SoA rows in place,
and gathered chunks (cohorts, r ≠ k) into their gathered copies.  The
draws do: ``"draws"`` is one 256-row block of a streamed full sweep,
or every row of a gathered chunk (see :mod:`repro.core.fastpath`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace", "grow_rows"]


def grow_rows(arr: np.ndarray, rows: int, fill) -> np.ndarray:
    """``arr`` if it has ``rows`` leading rows, else a copy grown
    geometrically (at least doubled) and padded with ``fill`` — the
    capacity growth of every id-indexed engine and overlay table."""
    if arr.shape[0] >= rows:
        return arr
    grown = np.full((max(rows, 2 * arr.shape[0]), *arr.shape[1:]), fill, dtype=arr.dtype)
    grown[: arr.shape[0]] = arr
    return grown


class Workspace:
    """A named-buffer arena with geometric leading-axis growth.

    Buffers are keyed by name and fixed trailing shape: requesting the
    same name with a different trailing shape or dtype reallocates
    (steady-state callers keep those fixed), while a smaller leading
    dimension returns a view of the existing buffer and a larger one
    grows it geometrically.  Contents are **uninitialized** — callers
    fully overwrite what they take — so an outgrown buffer is dropped
    before its successor is allocated, never copied.
    """

    def __init__(self):
        #: name -> (buffer, trailing shape, dtype as last requested).
        self._buffers: dict[str, tuple[np.ndarray, tuple, object]] = {}
        #: Buffers (re)allocated since construction — watched by the
        #: allocation-regression tests.
        self.allocations = 0

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A ``shape``-sized view of the buffer named ``name``."""
        # The steady request (same trailing shape, same dtype object,
        # enough rows) is one lookup and a slice.
        entry = self._buffers.get(name)
        if (entry is not None and entry[2] is dtype and entry[1] == shape[1:]
                and entry[0].shape[0] >= shape[0]):
            return entry[0][: shape[0]]
        lead = int(shape[0])
        trail = tuple(int(s) for s in shape[1:])
        buf = self._buffers.pop(name, (None,))[0]
        grown = lead
        if buf is not None and buf.shape[1:] == trail:
            if buf.dtype == dtype and buf.shape[0] >= lead:
                self._buffers[name] = (buf, trail, dtype)
                return buf[:lead]
            grown = max(lead, 2 * buf.shape[0])
        buf = entry = None  # the old buffer goes before the new one comes
        buf = np.empty((grown, *trail), dtype=dtype)
        self._buffers[name] = (buf, trail, dtype)
        self.allocations += 1
        return buf[:lead]

    def nbytes(self) -> int:
        """Total bytes currently held (diagnostics)."""
        return sum(entry[0].nbytes for entry in self._buffers.values())

    def names(self) -> tuple[str, ...]:
        """Currently held buffer names (diagnostics/tests)."""
        return tuple(self._buffers)
