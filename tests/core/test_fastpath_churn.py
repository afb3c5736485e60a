"""Churn on the SoA engines: the row-order invariant.

SoA row ``i`` is the ``i``-th entry of the live list.  A crash
swap-removes its row exactly as the live list swap-removes the id (the
last row and its node generator move into the hole), and a cycle's
joins append one block of rows.  Only a strict
engine holds node generators (one per row); a batched one holds none.  Per-row PSO
arithmetic does not depend on row order, so the churned records pinned
in ``tests/pins`` (``record/churn-*``), captured when joins recycled
crashed nodes' slots through an id -> slot indirection, stay byte-equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fastpath import FastEngine
from repro.utils.config import ChurnConfig, ExperimentConfig

UNREACHABLE = 10**12


# -- the invariant the engine keeps ------------------------------------------------


def heavy_churn_engine(rng_mode: str = "strict", **fields) -> FastEngine:
    config = dict(
        function="sphere", nodes=12, particles_per_node=3,
        total_evaluations=UNREACHABLE, gossip_cycle=3, seed=83,
        churn=ChurnConfig(crash_rate=0.25, join_rate=0.25, min_population=4),
    )
    config.update(fields)
    engine = FastEngine(ExperimentConfig(**config), rng_mode=rng_mode)
    engine.budget = None
    return engine


def snapshot(engine: FastEngine) -> dict:
    """Per live id: its row's state and generator (strict only)."""
    out = {}
    for row, nid in enumerate(engine.live_ids().tolist()):
        gen = engine._gens[row] if engine._gens else None
        out[nid] = (engine.soa.node_state(row), gen)
    return out


def assert_rows_follow_live_list(engine: FastEngine, spent: int | None = None):
    ids = engine.live_ids()
    assert engine.soa.n == engine.live_count == ids.size
    np.testing.assert_array_equal(engine._slot_of_id[ids], np.arange(ids.size))
    assert engine._alive.sum() == ids.size
    # Strict rows draw from their node's generator; batched rows from
    # id-keyed blocks, so a batched engine holds none.
    held = engine.soa.n if engine.rng_mode == "strict" else 0
    assert len(engine._gens) == held
    total = engine.total_evaluations()
    assert total == int(engine.soa.evaluations.sum()) + engine._retired_evaluations
    if spent is not None:
        assert total == spent


def assert_rows_travel_with_ids(before: dict, engine: FastEngine) -> None:
    after = snapshot(engine)
    for nid, (state, gen) in after.items():
        if nid not in before:
            continue
        old_state, old_gen = before[nid]
        for field in ("positions", "velocities", "pbest_positions",
                      "pbest_values", "best_position"):
            np.testing.assert_array_equal(
                getattr(state, field), getattr(old_state, field)
            )
        assert (state.best_value, state.evaluations, state.cursor) == (
            old_state.best_value, old_state.evaluations, old_state.cursor
        )
        assert gen is old_gen


@pytest.mark.parametrize("rng_mode", ["strict", "batched"])
def test_every_cycle_and_crash_keeps_rows_in_live_order(rng_mode):
    engine = heavy_churn_engine(rng_mode)
    r = engine.config.gossip_cycle
    spent = 0
    for _ in range(40):
        engine.run(1)
        spent += engine.live_count * r  # churn runs first, then every live node steps
        assert_rows_follow_live_list(engine, spent)
    assert engine.joins > 0 and engine.crashes > 0
    for where in (0.0, 0.5, 1.0):  # the first, a middle and the last live id
        before = snapshot(engine)
        ids = engine.live_ids()
        engine.crash_node(int(ids[round(where * (ids.size - 1))]))
        assert_rows_follow_live_list(engine, spent)
        assert_rows_travel_with_ids(before, engine)


def test_live_ids_is_a_copy():
    engine = heavy_churn_engine()
    engine.run(5)
    ids = engine.live_ids()
    ids[:] = -7
    assert (engine.live_ids() >= 0).all()


def test_join_batch_appends_rows_and_returns_ids():
    engine = heavy_churn_engine()
    first = engine._next_id
    ids = engine._join(3)
    np.testing.assert_array_equal(ids, np.arange(first, first + 3))
    np.testing.assert_array_equal(engine.live_ids()[-3:], ids)
    assert engine.joins == 3
    assert engine._join(0).size == 0 and engine.joins == 3
    assert_rows_follow_live_list(engine)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("cycle"), st.integers(1, 3)),
        st.tuples(st.just("crash"), st.floats(0, 1, exclude_max=True)),
        st.tuples(st.just("join"), st.integers(0, 5)),
    ),
    max_size=25,
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, rng_mode=st.sampled_from(["strict", "batched"]))
def test_any_sequence_of_cycles_crashes_and_joins(ops, rng_mode):
    engine = heavy_churn_engine(rng_mode, nodes=8)
    for op, arg in ops:
        before = snapshot(engine)
        if op == "cycle":
            engine.run(arg)
        elif op == "crash":
            if engine.live_count > 1:
                engine.crash_node(int(engine.live_ids()[int(arg * engine.live_count)]))
            assert_rows_travel_with_ids(before, engine)
        else:
            engine._join(arg)
            assert_rows_travel_with_ids(before, engine)
        assert_rows_follow_live_list(engine)


def test_spent_nodes_stay_put_beside_joiners():
    """A node that has spent its budget never moves again, also on the
    full sweep its joining neighbours keep running.  No record shows
    this (an unevaluated particle's position reaches no output), so the
    SoA rows are compared directly."""
    engine = FastEngine(ExperimentConfig(
        function="sphere", nodes=12, particles_per_node=3,
        total_evaluations=12 * 12, gossip_cycle=3, seed=83,
        churn=ChurnConfig(join_rate=0.25),
    ), rng_mode="strict")
    engine.run(4)  # cycle 0 evaluates, three cycles move: every founder is spent
    spent = {
        nid: engine.soa.node_state(row)
        for row, nid in enumerate(engine.live_ids().tolist())
        if engine.soa.evaluations[row] >= engine.budget
    }
    assert len(spent) == 12
    joins = engine.joins
    engine.run(3)
    assert engine.joins > joins
    for row, nid in enumerate(engine.live_ids().tolist()):
        if nid in spent:
            state = engine.soa.node_state(row)
            for field in ("positions", "velocities", "pbest_positions",
                          "pbest_values", "evaluations", "cursor"):
                np.testing.assert_array_equal(
                    getattr(state, field), getattr(spent[nid], field)
                )
