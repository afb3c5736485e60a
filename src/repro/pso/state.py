"""Swarm state container.

Separating state from behaviour keeps the solver testable (tests build
states directly), serializable (checkpointing an experiment is
pickling states) and lets swarm variants share storage layout.

All arrays are row-per-particle, so a vectorized update touches each
array once; this is the layout the HPC guide's cache-effects section
prescribes for per-row operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SwarmState", "SwarmStateSoA"]


@dataclass
class SwarmState:
    """Complete mutable state of one particle swarm.

    Attributes
    ----------
    positions:
        Current particle positions ``x_i``, shape ``(k, d)``.
    velocities:
        Current particle velocities ``v_i``, shape ``(k, d)``.
    pbest_positions:
        Per-particle best positions ``p_i``, shape ``(k, d)``.
    pbest_values:
        Objective values at ``p_i``, shape ``(k,)``.
    best_position / best_value:
        The *swarm optimum* ``g_p`` of paper Sec. 3.3.2 — the best
        point this swarm knows, whether found locally or received from
        a peer.  Always at least as good as every ``pbest``.
    evaluations:
        Local function evaluations performed so far ("local time").
    cursor:
        Round-robin index of the next particle for per-particle
        stepping.
    """

    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_values: np.ndarray
    best_position: np.ndarray
    best_value: float
    evaluations: int = 0
    cursor: int = 0

    @property
    def size(self) -> int:
        """Number of particles ``k``."""
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        """Search-space dimensionality ``d``."""
        return self.positions.shape[1]

    def validate(self) -> None:
        """Check internal shape/ordering invariants (used by tests).

        Raises ``AssertionError`` on violation; cheap enough to call in
        property-based tests after every operation.
        """
        k, d = self.positions.shape
        assert self.velocities.shape == (k, d)
        assert self.pbest_positions.shape == (k, d)
        assert self.pbest_values.shape == (k,)
        assert self.best_position.shape == (d,)
        assert np.isfinite(self.best_value) or self.best_value == np.inf
        # The swarm optimum can only be better than or equal to any pbest.
        if k > 0 and np.all(np.isfinite(self.pbest_values)):
            assert self.best_value <= float(np.min(self.pbest_values)) + 1e-12
        assert 0 <= self.cursor < max(k, 1)
        assert self.evaluations >= 0

    def copy(self) -> "SwarmState":
        """Deep copy (checkpointing)."""
        return SwarmState(
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            pbest_positions=self.pbest_positions.copy(),
            pbest_values=self.pbest_values.copy(),
            best_position=self.best_position.copy(),
            best_value=float(self.best_value),
            evaluations=self.evaluations,
            cursor=self.cursor,
        )


#: SoA array names, in the order the keyword constructor takes them.
_SOA_FIELDS = (
    "positions",
    "velocities",
    "pbest_positions",
    "pbest_values",
    "best_positions",
    "best_values",
    "evaluations",
    "cursors",
)


def _soa_slot_property(field: str):
    buf = "_" + field

    def getter(self: "SwarmStateSoA") -> np.ndarray:
        return getattr(self, buf)[: self._n]

    def setter(self: "SwarmStateSoA", value: np.ndarray) -> None:
        # Public assignment always copies into the backing slots, so
        # callers keep ownership of ``value``; only reserve() replaces
        # a backing array.
        arr = getattr(self, buf)
        if value.shape[0] != self._n:
            raise ValueError(
                f"{field}: expected leading axis {self._n}, got {value.shape[0]}"
            )
        arr[: self._n] = value

    return property(getter, setter)


class SwarmStateSoA:
    """Structure-of-arrays state of ``n`` same-shaped swarms.

    The network-level fast path (:mod:`repro.core.fastpath`) advances
    every node's swarm with single batched array operations, so the
    per-node :class:`SwarmState` rows are stacked along a leading node
    axis.  Axis 0 is the node's position in the fast engine's live
    list, axis 1 the particle, axis 2 the search dimension.  No row is
    ever reused: a crash removes its row with :meth:`swap_remove` (the
    last row moves into the hole, as in the live list) and joins
    :meth:`append` a block of fresh rows.

    Storage is capacity-backed: the physical arrays may hold spare
    trailing rows, and :meth:`append` grows them geometrically — a
    churn join is amortized O(k·d) instead of the O(n·k·d)
    reallocation a per-join concatenation costs.  All public array
    attributes are views of the first ``n`` rows:

    * ``positions`` / ``velocities`` / ``pbest_positions``: ``(n, k, d)``
    * ``pbest_values``: ``(n, k)``
    * ``best_positions`` / ``best_values``: per-node swarm optima
      ``g_p`` / ``f(g_p)``, ``(n, d)`` and ``(n,)``
    * ``evaluations`` / ``cursors``: per-node local time and
      round-robin cursor, ``(n,)``
    """

    positions = _soa_slot_property("positions")
    velocities = _soa_slot_property("velocities")
    pbest_positions = _soa_slot_property("pbest_positions")
    pbest_values = _soa_slot_property("pbest_values")
    best_positions = _soa_slot_property("best_positions")
    best_values = _soa_slot_property("best_values")
    evaluations = _soa_slot_property("evaluations")
    cursors = _soa_slot_property("cursors")

    def __init__(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        pbest_positions: np.ndarray,
        pbest_values: np.ndarray,
        best_positions: np.ndarray,
        best_values: np.ndarray,
        evaluations: np.ndarray,
        cursors: np.ndarray,
    ):
        self._n = positions.shape[0]
        for name, arr in zip(
            _SOA_FIELDS,
            (positions, velocities, pbest_positions, pbest_values,
             best_positions, best_values, evaluations, cursors),
        ):
            setattr(self, "_" + name, np.ascontiguousarray(arr))

    @property
    def n(self) -> int:
        """Number of occupied node slots."""
        return self._n

    @property
    def capacity(self) -> int:
        """Physical slots allocated (``>= n``)."""
        return self._positions.shape[0]

    @property
    def k(self) -> int:
        """Particles per node."""
        return self._positions.shape[1]

    @property
    def d(self) -> int:
        """Search-space dimensionality."""
        return self._positions.shape[2]

    def node_state(self, i: int) -> SwarmState:
        """Materialize slot ``i`` as an independent :class:`SwarmState`.

        Used by tests and observers to compare fast-path rows against
        reference swarms; the returned state shares no memory with the
        SoA arrays.
        """
        return SwarmState(
            positions=self._positions[i].copy(),
            velocities=self._velocities[i].copy(),
            pbest_positions=self._pbest_positions[i].copy(),
            pbest_values=self._pbest_values[i].copy(),
            best_position=self._best_positions[i].copy(),
            best_value=float(self._best_values[i]),
            evaluations=int(self._evaluations[i]),
            cursor=int(self._cursors[i]),
        )

    def reserve(self, slots: int) -> None:
        """Ensure physical capacity for ``slots`` rows (geometric growth)."""
        cap = self.capacity
        if cap >= slots:
            return
        new_cap = max(slots, 2 * cap)
        for name in _SOA_FIELDS:
            buf = getattr(self, "_" + name)
            grown = np.zeros((new_cap, *buf.shape[1:]), dtype=buf.dtype)
            grown[:cap] = buf
            setattr(self, "_" + name, grown)

    def append(self, block: "SwarmStateSoA") -> None:
        """Append ``block``'s rows after the occupied ones (churn joins).

        Amortized O(rows·k·d): at capacity the buffers double,
        otherwise only the new rows are written.
        """
        start, end = self._n, self._n + block.n
        self.reserve(end)
        for name in _SOA_FIELDS:
            getattr(self, "_" + name)[start:end] = getattr(block, name)
        self._n = end

    def swap_remove(self, row: int) -> None:
        """Drop ``row``; the last occupied row moves into its place."""
        if not (0 <= row < self._n):
            raise ValueError(f"row {row} out of range [0, {self._n})")
        last = self._n - 1
        for name in _SOA_FIELDS:
            buf = getattr(self, "_" + name)
            buf[row] = buf[last]
        self._n = last

