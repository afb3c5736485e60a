"""Allocation discipline of the SoA engine, and the no-op problem layer.

* **Zero steady-state allocations** — once the engine settles into
  full-sweep cycles, the workspace owns every large intermediate: a
  traced block of cycles must allocate no new large arrays and the
  workspace's allocation counter must stand still.
* **The engine holds the swarm, not copies of it** — over build plus
  a few cycles a batched engine's traced peak stays within twice its
  particle arrays: draws stream per block, no per-node generators are
  kept, and the bootstrap and NEWSCAST rounds work in row blocks.
* **Default problem-layer specs are no-ops** — explicit
  ``DynamicsSpec()`` / ``AdversarySpec()`` give the record of a run
  without them.  The records themselves are pinned in ``tests/pins``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.fastpath import FastEngine, run_single_fast
from repro.functions.base import Function, register_function
from repro.functions.problem import DynamicsSpec
from repro.scenario.result import RunRecord
from repro.simulator.adversary import AdversarySpec
from repro.utils.config import ChurnConfig, ExperimentConfig


@pytest.mark.parametrize("topology", ["newscast", "cyclon", "ring", "oracle"])
def test_default_problem_layer_specs_are_no_ops(topology):
    """The time-aware Problem layer threads ``dynamics=``/``adversary=``
    through every engine; explicit default-disabled specs must give the
    record of a run that passes neither."""
    config = ExperimentConfig(function="sphere", nodes=32, particles_per_node=4,
                              total_evaluations=2560, gossip_cycle=4, seed=7)
    runs = [
        run_single_fast(config, repetition=1, topology=topology, **specs)
        for specs in ({}, dict(dynamics=DynamicsSpec(), adversary=AdversarySpec()))
    ]
    assert runs[1].dynamics is None and runs[1].adversary is None
    default, explicit = (RunRecord.from_run_result(run).to_dict() for run in runs)
    assert explicit == default


# -- steady-state allocation regression ---------------------------------------


class _CachingSphere(Function):
    """Sphere with internal scratch reuse and no per-call allocation.

    The registered objective suite allocates its result arrays fresh
    (``Function.batch`` has no ``out=`` channel), which would swamp a
    tracemalloc budget; the engine's own allocation discipline is the
    thing under test here, so the objective caches its buffers.
    """

    NAME = "_alloc_probe_sphere"

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or 10, -100.0, 100.0)
        self._sq: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        m = pts.shape[0]
        if self._sq is None or self._sq.shape[0] < m:
            # Geometric, like the workspace: a churned population that
            # creeps up a few rows per cycle does not regrow it each time.
            rows = m if self._sq is None else max(m, 2 * self._sq.shape[0])
            self._sq = np.empty((rows, self.dimension))
            self._out = np.empty(rows)
        sq = self._sq[:m]
        out = self._out[:m]
        np.multiply(pts, pts, out=sq)
        np.sum(sq, axis=1, out=out)
        return out


try:
    register_function(_CachingSphere.NAME, _CachingSphere)
except Exception:  # pragma: no cover - double import under odd collection
    pass


#: One regressed (n, k, d) temporary at this shape is 640 KB and a
#: merge candidate matrix 656 KB — both well above this budget; the
#: small (nl,)-sized per-cycle temporaries peak around 260 KB in
#: aggregate, comfortably below it.
LARGE_ALLOC_BUDGET = 384 * 1024


#: The SoA's capacity-backed particle arrays: updated in place, so the
#: same objects before and after any number of settled cycles.
SOA_FIELDS = ("_positions", "_velocities", "_pbest_positions", "_pbest_values")


def traced_peak(engine: FastEngine, cycles: int) -> int:
    """Peak bytes newly allocated while ``engine`` runs ``cycles`` cycles."""
    tracemalloc.start()
    try:
        engine.run(cycles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestSteadyStateAllocations:
    def _engine(self, **fields) -> FastEngine:
        config = ExperimentConfig(
            function=_CachingSphere.NAME, nodes=1000, particles_per_node=8,
            total_evaluations=10**9, gossip_cycle=8, seed=1, **fields,
        )
        return FastEngine(config, topology="newscast", rng_mode="strict")

    def test_settled_cycles_allocate_no_large_arrays(self):
        engine = self._engine()
        engine.run(4)  # settle: grow every workspace buffer once
        allocs_before = engine.workspace.allocations
        peak = traced_peak(engine, 5)
        assert engine.workspace.allocations == allocs_before, (
            "workspace buffers must stop growing once settled: "
            f"{engine.workspace.names()}"
        )
        assert peak < LARGE_ALLOC_BUDGET, (
            f"steady-state cycles allocated {peak / 1024:.0f} KiB "
            f"(budget {LARGE_ALLOC_BUDGET // 1024} KiB): a large per-cycle "
            "temporary has crept back into the hot path"
        )

    def test_churned_cycles_allocate_like_steady_ones(self):
        """Joiners (pbest = inf, frozen for their first chunk) keep the
        whole population on the in-place sweep."""
        engine = self._engine(
            churn=ChurnConfig(crash_rate=0.01, join_rate=0.01)
        )
        engine.run(4)
        engine.soa.reserve(2 * engine.soa.n)  # joins append, never regrow
        before = [getattr(engine.soa, f) for f in SOA_FIELDS]
        joins, crashes = engine.joins, engine.crashes
        peak = traced_peak(engine, 5)
        assert engine.joins > joins and engine.crashes > crashes
        assert peak < LARGE_ALLOC_BUDGET, (
            f"churned cycles allocated {peak / 1024:.0f} KiB "
            f"(budget {LARGE_ALLOC_BUDGET // 1024} KiB): a frozen particle "
            "has knocked the sweep off the SoA rows"
        )
        assert all(
            getattr(engine.soa, f) is arr for f, arr in zip(SOA_FIELDS, before)
        )

    def test_workspace_carries_the_hot_buffers(self):
        engine = self._engine()
        engine.run(3)
        names = set(engine.workspace.names())
        # Sweep values, gossip snapshots, and the NEWSCAST
        # candidate/merge matrices all live in the arena.
        for expected in ("sweep_val", "gp_val", "gp_posm", "gp_pval",
                         "gp_ppos", "nc_fresh", "nc_cand", "nc_gather",
                         "mr_first", "mr_ends", "mc_key", "mc_tmp",
                         "mw_merged", "mw_kept"):
            assert expected in names, f"{expected} missing from {names}"
        # The particle state is updated in place, never double-buffered.
        assert not any(name in names for name in
                       ("sweep_pos", "sweep_vel", "sweep_pb", "sweep_pbv"))
        before = [getattr(engine.soa, f) for f in SOA_FIELDS]
        engine.run(4)
        assert all(
            getattr(engine.soa, f) is arr for f, arr in zip(SOA_FIELDS, before)
        )


# -- working set -------------------------------------------------------------------


#: Traced peak over build plus five cycles, in units of the three
#: ``(n, k, d)`` particle arrays (about 1.8 at n = 2600).  A swarm-sized
#: draw buffer adds about 0.67 of a unit, per-node generators kept by a
#: batched engine about 0.4, so either regression breaks the bound.
WORKING_SET_BOUND = 2.0


def test_batched_engine_holds_the_swarm_not_copies_of_it():
    """A batched whole-population engine past n = 2048 (so the
    replacement bootstrap runs): SoA plus a few blocks of scratch."""
    config = ExperimentConfig(function="sphere", nodes=2600, particles_per_node=8,
                              total_evaluations=10**9, gossip_cycle=8, seed=1)
    tracemalloc.start()
    try:
        engine = FastEngine(config, topology="newscast", rng_mode="batched")
        engine.run(5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    soa = engine.soa
    assert soa.d == 10 and engine.cycle == 5
    swarm = soa.positions.nbytes + soa.velocities.nbytes + soa.pbest_positions.nbytes
    assert engine._gens == []
    assert peak <= WORKING_SET_BOUND * swarm, (
        f"build plus 5 cycles peaked at {peak / swarm:.2f}x the particle "
        f"arrays (bound {WORKING_SET_BOUND}x): a swarm-sized buffer is back"
    )
