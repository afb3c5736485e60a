"""The narrow kernel interface every backend implements.

One deliberate seam: the fast engine and the array topology layer call
*only* the methods below for their hot loops, and every method is a
pure array transformation — no engine state, no RNG, no protocol
logic.  That keeps a backend implementable in ~200 lines (the NumPy
oracle), testable by direct comparison (the contract suite runs every
registered backend against the oracle on random inputs), and honest
about semantics (randomness and protocol decisions stay in the engine,
so switching backends can never change *what* is simulated, only how
fast).

Float kernels carry a **bit-identity** obligation: implementations
must evaluate the documented expression in the documented operation
order with IEEE-754 double arithmetic — no reassociation, no FMA
contraction (Numba: ``fastmath=False``), no extended precision.
Integer kernels must match exactly by construction.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.kernels.workspace import Workspace

__all__ = ["BackendUnavailable", "KernelBackend"]


class BackendUnavailable(RuntimeError):
    """A backend's runtime dependency is missing (e.g. numba not installed)."""


class KernelBackend(abc.ABC):
    """Hot-path kernels of the SoA engine, behind one narrow interface.

    All methods accept optional ``out`` buffers and an optional
    :class:`~repro.core.kernels.workspace.Workspace` for internal
    scratch; with both provided a call performs no new large-array
    allocations (the steady-state contract pinned by
    ``tests/core/test_fastpath_alloc.py``).  With neither, results are
    freshly allocated — the convenient form for tests and cold paths.
    """

    #: Registry name of the backend ("numpy", "numba", ...).
    name: str = "backend"

    @abc.abstractmethod
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
        Returns ``(v', x')``.  Must not mutate any input.
        """

    @abc.abstractmethod
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
        pos, pb))``.  Must not mutate any input.
        """

    @abc.abstractmethod
    def batch_eval(
        self,
        functions: list,
        node_group: np.ndarray | None,
        live: np.ndarray,
        pos: np.ndarray,
        out: np.ndarray | None = None,
        ctx=None,
    ) -> np.ndarray:
        """Evaluate ``(m, w, d)`` positions, one batched call per function group.

        ``node_group`` maps SoA slots to indices of ``functions``
        (``None`` = homogeneous: ``functions[0]`` evaluates everything);
        ``live`` holds the SoA slot of each row of ``pos``.  Returns the
        ``(m, w)`` objective values.

        ``ctx`` is the time-aware dispatch seam: ``None`` (the static
        case) calls ``fn.batch(points)`` exactly as before — same
        operations, same bit stream.  With an
        :class:`~repro.functions.problem.EvalContext`, ``functions``
        holds :class:`~repro.functions.problem.Problem` objects and
        each group evaluates via ``fn.batch_at(points, ctx)`` — the
        landscape as of the engine's virtual clock.
        """

    @abc.abstractmethod
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

        See :func:`repro.core.kernels.numpy_backend.scatter_min_fold`
        (the oracle) for the exact phased-adoption semantics.  Returns
        the number of receivers that adopted.
        """

    @abc.abstractmethod
    def merge_candidates(
        self, keys: np.ndarray, capacity: int, ws: Workspace | None = None
    ) -> np.ndarray:
        """NEWSCAST merge of every row of an ``(m, w)`` packed-key matrix.

        Keys are the ``int64`` descriptors of
        :mod:`repro.topology.array_views` (any order, empty slots
        anywhere).  Returns ``(m, min(capacity, w))`` keys: per row the
        freshest copy of each id, ascending — freshest first, equal
        stamps by descending id, empty slots last.  Must match
        :func:`repro.core.kernels.numpy_backend.merge_candidates`
        exactly (integer arithmetic — bit-identity is free) and must
        not write ``keys``.  The result is a view of a workspace
        buffer, valid until the next merge on the same ``ws``
        (``None``: a private one); callers copy or scatter it out.
        """
