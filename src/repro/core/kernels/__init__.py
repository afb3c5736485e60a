"""The SoA hot-path kernels.

The fast engine's cycle cost is concentrated in four whole-network
kernels — the fused PSO velocity/position update (with its per-particle
best fold), the batched objective evaluation, the anti-entropy gossip
reduction, and the NEWSCAST packed-int64 merge.  They are the methods
of one NumPy class, :class:`KernelBackend`, and every engine calls
them through an instance (``FastEngine.backend``, the array overlays'
``attach_kernels``), so a proxy subclass can time them without the
engines knowing.

Two contracts pin the kernels (``tests/core/test_kernels.py``):

* **bit-identity** — each float kernel reproduces its documented
  expression's exact IEEE-754 bit stream, and its workspace path is
  bit-identical to its allocating path;
* **workspace discipline** — kernels write into caller-provided
  (:class:`Workspace`-owned) buffers so a steady-state engine cycle
  performs no new large-array allocations
  (``tests/core/test_fastpath_alloc.py``).
"""

from __future__ import annotations

from repro.core.kernels.numpy_backend import KernelBackend
from repro.core.kernels.workspace import Workspace, grow_rows
from repro.utils.exceptions import ConfigurationError

__all__ = ["KernelBackend", "Workspace", "get_backend", "grow_rows"]

_NUMPY = KernelBackend()


def get_backend(name: str | KernelBackend = "numpy") -> KernelBackend:
    """The kernels ``name`` stands for: an instance passes through,
    ``"numpy"`` is the shared built-in one, anything else is an error."""
    if isinstance(name, KernelBackend):
        return name
    if name != "numpy":
        raise ConfigurationError(f"unknown kernel backend {name!r}; only 'numpy'")
    return _NUMPY
