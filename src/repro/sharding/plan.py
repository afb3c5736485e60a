"""The shard planner: a balanced contiguous partition of the id space.

Contiguity is load-bearing, not cosmetic: a shard's ids form one
``[lo, hi)`` block, so *owner lookup is arithmetic* (no hash table on
the hot path — remote gossip routing does one ``searchsorted`` over at
most a few dozen boundaries), and the per-shard
:class:`~repro.core.fastpath.FastEngine` maps id ``lo + i`` to row
``i``.  Balance is exact to ±1 node: the first ``nodes % shards``
blocks are one node larger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """Partition of node ids ``0..nodes-1`` into ``shards`` blocks.

    >>> plan = ShardPlan(nodes=10, shards=3)
    >>> [plan.block(s) for s in range(3)]
    [(0, 4), (4, 7), (7, 10)]
    >>> plan.owner_of(np.array([0, 3, 4, 9])).tolist()
    [0, 0, 1, 2]
    """

    nodes: int
    shards: int
    #: Block boundaries, length ``shards + 1``: shard ``s`` owns
    #: ``[bounds[s], bounds[s+1])``.  Derived; do not pass.
    bounds: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("ShardPlan.nodes must be >= 1")
        if not (1 <= self.shards <= self.nodes):
            raise ConfigurationError(
                f"ShardPlan.shards must be in [1, nodes]; got "
                f"{self.shards} shards for {self.nodes} nodes"
            )
        base, extra = divmod(self.nodes, self.shards)
        sizes = [base + (1 if s < extra else 0) for s in range(self.shards)]
        bounds = [0]
        for size in sizes:
            bounds.append(bounds[-1] + size)
        object.__setattr__(self, "bounds", tuple(bounds))
        object.__setattr__(
            self, "_bounds_arr", np.asarray(bounds, dtype=np.int64)
        )

    def block(self, shard: int) -> tuple[int, int]:
        """The ``[lo, hi)`` id block of ``shard``."""
        self._check(shard)
        return self.bounds[shard], self.bounds[shard + 1]

    def size(self, shard: int) -> int:
        """Number of nodes ``shard`` owns."""
        lo, hi = self.block(shard)
        return hi - lo

    def ids_of(self, shard: int) -> np.ndarray:
        """The shard's global node ids, ascending."""
        lo, hi = self.block(shard)
        return np.arange(lo, hi, dtype=np.int64)

    def owner_of(self, ids: np.ndarray) -> np.ndarray:
        """Owning shard index of each id (vectorized)."""
        arr: np.ndarray = self._bounds_arr  # type: ignore[attr-defined]
        out = np.searchsorted(arr[1:], np.asarray(ids, dtype=np.int64),
                              side="right")
        return out.astype(np.int64)

    def by_owner(self, ids: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """``(shard, mask)`` for each shard owning some of ``ids``, ascending.

        >>> plan = ShardPlan(nodes=10, shards=3)
        >>> [(s, m.tolist()) for s, m in plan.by_owner(np.array([9, 0, 8]))]
        [(0, [False, True, False]), (2, [True, False, True])]
        """
        owners = self.owner_of(ids)
        for shard in range(self.shards):
            mask = owners == shard
            if mask.any():
                yield shard, mask

    def _check(self, shard: int) -> None:
        if not (0 <= shard < self.shards):
            raise ConfigurationError(
                f"shard index {shard} out of range [0, {self.shards})"
            )
