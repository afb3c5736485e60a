"""Capacity-backed SoA state: growth, slot recycling, view semantics."""

from __future__ import annotations

import numpy as np

from repro.functions.base import get_function
from repro.pso.swarm import initial_swarm_soa, initial_swarm_state
from repro.utils.config import PSOConfig


def make_state(seed):
    return initial_swarm_state(
        get_function("sphere"), PSOConfig(particles=3), np.random.default_rng(seed)
    )


def make_soa(n=4):
    f = get_function("sphere")
    return initial_swarm_soa(
        [np.random.default_rng(i) for i in range(n)],
        PSOConfig(particles=3), f.lower, f.upper,
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
            soa.append_state(make_state(100 + i))
            capacities.add(soa.capacity)
        assert soa.n == 64
        # Geometric doubling: O(log n) distinct capacities, not O(n).
        assert len(capacities) <= 5
        assert soa.capacity >= soa.n

    def test_views_track_occupied_slots_only(self):
        soa = make_soa(2)
        soa.append_state(make_state(5))  # forces headroom
        assert soa.capacity > soa.n or soa.capacity == soa.n
        soa.reserve(16)
        assert soa.positions.shape[0] == soa.n == 3
        assert soa.best_values.shape == (3,)

    def test_append_preserves_existing_rows(self):
        soa = make_soa(2)
        before = soa.node_state(0)
        for i in range(10):
            soa.append_state(make_state(50 + i))
        after = soa.node_state(0)
        assert np.array_equal(before.positions, after.positions)
        assert before.best_value == after.best_value

    def test_replace_slot_overwrites_in_place(self):
        soa = make_soa(3)
        fresh = make_state(99)
        soa.replace_slot(1, fresh)
        got = soa.node_state(1)
        assert np.array_equal(got.positions, fresh.positions)
        assert got.evaluations == fresh.evaluations
        assert soa.n == 3

    def test_replace_slot_bounds_checked(self):
        soa = make_soa(2)
        try:
            soa.replace_slot(5, make_state(1))
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_setter_writes_through_with_headroom(self):
        soa = make_soa(2)
        soa.reserve(8)
        new_best = soa.best_values + 1.0
        soa.best_values = new_best
        assert np.array_equal(soa.best_values, new_best)
        assert soa.capacity == 8

    def test_extend_matches_append_sequence(self):
        a = make_soa(2)
        b = make_soa(2)
        states = [make_state(70 + i) for i in range(5)]
        a.extend(states)
        for st in states:
            b.append_state(st)
        assert a.n == b.n
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.evaluations, b.evaluations)
