"""The velocity bound.

The paper (Sec. 2): "Particle speeds on each dimension are bounded to
a maximum velocity vmax_i, specified by the user."  The standard
convention — used here as the default — sets ``vmax_i`` to a fraction
of the domain width in dimension ``i``; a fraction of 1.0 (full width)
reproduces the permissive clamping typical of early PSO work.
"""

from __future__ import annotations

import numpy as np

from repro.functions.base import Function

__all__ = ["resolve_vmax"]


def resolve_vmax(function: Function, fraction: float | None) -> np.ndarray | None:
    """Per-dimension speed bound for ``fraction``, or None if unclamped.

    Single source of truth for the ``vmax_i = fraction × width_i``
    convention, shared by the reference :class:`~repro.pso.swarm.Swarm`
    and the batched network engine in :mod:`repro.core.fastpath` — so
    the two engines can never disagree on the clamping bound.
    """
    if fraction is None:
        return None
    if fraction <= 0:
        raise ValueError("fraction must be > 0")
    return fraction * function.domain_width
