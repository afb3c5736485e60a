"""Capacity-backed SoA state: block appends, swap-removes, view semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.functions.base import get_function
from repro.pso.swarm import initial_swarm_soa
from repro.utils.config import PSOConfig


def make_soa(n=4, first_seed=0):
    f = get_function("sphere")
    return initial_swarm_soa(
        [np.random.default_rng(first_seed + i) for i in range(n)],
        PSOConfig(particles=3), f.lower, f.upper,
    )


def rows(soa):
    return [soa.node_state(i) for i in range(soa.n)]


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert (a.best_value, a.evaluations, a.cursor) == (
            b.best_value, b.evaluations, b.cursor
        )


class TestCapacity:
    def test_stacked_state_starts_exact(self):
        soa = make_soa(4)
        assert soa.n == 4 and soa.capacity == 4
        assert soa.positions.shape == (4, 3, get_function("sphere").dimension)

    def test_append_grows_geometrically(self):
        soa = make_soa(4)
        capacities = set()
        for i in range(60):
            soa.append(make_soa(1, 100 + i))
            capacities.add(soa.capacity)
        assert soa.n == 64
        # Geometric doubling: O(log n) distinct capacities, not O(n).
        assert len(capacities) <= 5
        assert soa.capacity >= soa.n

    def test_views_track_occupied_slots_only(self):
        soa = make_soa(2)
        soa.append(make_soa(1, 5))
        soa.reserve(16)
        assert soa.positions.shape[0] == soa.n == 3
        assert soa.best_values.shape == (3,)

    def test_append_preserves_existing_rows(self):
        soa = make_soa(2)
        before = rows(soa)
        for i in range(10):
            soa.append(make_soa(1, 50 + i))
        assert_same_rows(rows(soa)[:2], before)

    def test_block_append_equals_one_initializer_call(self):
        soa = make_soa(2)
        soa.append(make_soa(3, 2))
        soa.append(make_soa(1, 5))
        assert_same_rows(rows(soa), rows(make_soa(6)))

    def test_swap_remove_moves_the_last_row_into_the_hole(self):
        soa = make_soa(5)
        soa.evaluations = np.arange(5) * 10
        before = rows(soa)
        soa.swap_remove(1)
        assert_same_rows(rows(soa), [before[0], before[4], before[2], before[3]])
        soa.swap_remove(3)  # the last row: nothing moves
        assert_same_rows(rows(soa), [before[0], before[4], before[2]])
        assert soa.capacity == 5

    def test_swap_remove_bounds_checked(self):
        soa = make_soa(2)
        with pytest.raises(ValueError):
            soa.swap_remove(2)

    def test_setter_writes_through_with_headroom(self):
        soa = make_soa(2)
        soa.reserve(8)
        new_best = soa.best_values + 1.0
        soa.best_values = new_best
        assert np.array_equal(soa.best_values, new_best)
        assert soa.capacity == 8
