"""The unit of coordination: a candidate optimum.

An :class:`Optimum` is the ``⟨g_p, f(g_p)⟩`` pair the paper's
anti-entropy algorithm gossips (Sec. 3.3.3): a position in the search
space plus its objective value.  It is immutable — once measured, a
point's value never changes — and totally ordered by value so
"better" is spelled ``<``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Optimum"]


@dataclass(frozen=True)
class Optimum:
    """A ``(position, value)`` pair; lower value = better.

    Attributes
    ----------
    position:
        Location in the search space.  Stored as a read-only array so
        a shared optimum cannot be mutated by any holder.
    value:
        Objective value at ``position``.
    """

    position: np.ndarray
    value: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float)
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "value", float(self.value))
        if np.isnan(self.value):
            raise ValueError("Optimum value cannot be NaN")

    def __lt__(self, other: "Optimum") -> bool:
        return self.value < other.value

    @property
    def dimension(self) -> int:
        """Dimensionality of the position."""
        return int(self.position.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Optimum(value={self.value:.6g}, dim={self.dimension})"
