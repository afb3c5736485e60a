"""Allocation discipline and pre-refactor bit-identity pins.

Two guards on the kernel-backend refactor (PR 8):

* **Pinned results** — ``run_single_fast`` with the default
  ``kernel_backend="numpy"`` must keep producing the exact pre-refactor
  bit streams.  The hex floats below were captured on the commit
  *before* the kernels package existed, so any reordering of IEEE
  operations inside the backends or the workspace paths fails loudly.
* **Zero steady-state allocations** — once the engine settles into
  full-sweep cycles, the workspace owns every large intermediate: a
  traced block of cycles must allocate no new large arrays and the
  workspace's allocation counter must stand still.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.fastpath import FastEngine, run_single_fast
from repro.functions.base import Function, register_function
from repro.functions.problem import DynamicsSpec
from repro.simulator.adversary import AdversarySpec
from repro.utils.config import ChurnConfig, ExperimentConfig

CONFIG_A = dict(function="sphere", nodes=32, particles_per_node=4,
                total_evaluations=2560, gossip_cycle=4, seed=7)

#: (topology, best_value hex, evals, cycles, coordination messages,
#: adoptions, newscast exchanges) — strict RNG, repetition 1, captured
#: pre-refactor.
PINNED_STRICT = [
    ("newscast", "0x1.36f9d03b5ed79p+9", 2560, 20, 1078, 305, 640),
    ("cyclon", "0x1.2e05c977746b7p+10", 2560, 20, 1055, 321, 640),
    ("ring", "0x1.9fd42f424607cp+9", 2560, 20, 1118, 223, 0),
    ("oracle", "0x1.fdd9caf2bf628p+9", 2560, 20, 1111, 255, 0),
]


class TestPinnedBitIdentity:
    """kernel_backend='numpy' reproduces the pre-refactor streams."""

    @pytest.mark.parametrize(
        "topology,want_hex,evals,cycles,msgs,adoptions,exchanges",
        PINNED_STRICT, ids=[row[0] for row in PINNED_STRICT],
    )
    def test_strict_topologies(self, topology, want_hex, evals, cycles,
                               msgs, adoptions, exchanges):
        res = run_single_fast(
            ExperimentConfig(**CONFIG_A), repetition=1, topology=topology,
            rng_mode="strict", kernel_backend="numpy",
        )
        assert float(res.best_value).hex() == want_hex
        assert res.total_evaluations == evals
        assert res.cycles == cycles
        assert res.messages.coordination_messages == msgs
        assert res.messages.coordination_adoptions == adoptions
        assert res.messages.newscast_exchanges == exchanges

    def test_batched_newscast(self):
        res = run_single_fast(
            ExperimentConfig(**CONFIG_A), repetition=1, topology="newscast",
            rng_mode="batched",
        )
        assert float(res.best_value).hex() == "0x1.1e9376a701fa6p+10"
        assert res.total_evaluations == 2560
        assert res.cycles == 20
        assert res.messages.coordination_messages == 1100
        assert res.messages.newscast_exchanges == 640

    def test_strict_under_churn(self):
        config = ExperimentConfig(
            function="rastrigin", nodes=24, particles_per_node=4,
            total_evaluations=1440, gossip_cycle=4, seed=11,
            churn=ChurnConfig(crash_rate=0.02, join_rate=0.02,
                              min_population=4),
        )
        res = run_single_fast(config, repetition=0, topology="newscast",
                              rng_mode="strict")
        assert float(res.best_value).hex() == "0x1.108536263f3c0p+6"
        assert res.total_evaluations == 1916
        assert res.cycles == 34
        assert res.crashes == 19
        assert res.joins == 20
        assert res.messages.coordination_messages == 1465
        assert res.messages.newscast_exchanges == 664

    @pytest.mark.parametrize(
        "topology,want_hex,evals,cycles,msgs,adoptions,exchanges",
        PINNED_STRICT, ids=[row[0] for row in PINNED_STRICT],
    )
    def test_default_problem_layer_specs_stay_bit_identical(
            self, topology, want_hex, evals, cycles, msgs, adoptions,
            exchanges):
        """Explicit default-disabled Dynamics/Adversary specs are no-ops.

        The time-aware Problem layer threads ``dynamics=``/``adversary=``
        through every engine; a scenario that leaves both at their
        defaults must keep producing the exact pre-Problem-layer bit
        streams — the same pins as ``test_strict_topologies``.
        """
        res = run_single_fast(
            ExperimentConfig(**CONFIG_A), repetition=1, topology=topology,
            rng_mode="strict", kernel_backend="numpy",
            dynamics=DynamicsSpec(), adversary=AdversarySpec(),
        )
        assert float(res.best_value).hex() == want_hex
        assert res.total_evaluations == evals
        assert res.cycles == cycles
        assert res.messages.coordination_messages == msgs
        assert res.messages.coordination_adoptions == adoptions
        assert res.messages.newscast_exchanges == exchanges
        assert res.dynamics is None
        assert res.adversary is None

    def test_strict_r_not_dividing_k(self):
        config = ExperimentConfig(
            function="sphere", nodes=16, particles_per_node=6,
            total_evaluations=960, gossip_cycle=3, seed=3,
        )
        res = run_single_fast(config, repetition=0, topology="newscast",
                              rng_mode="strict")
        assert float(res.best_value).hex() == "0x1.752bba3416ea0p+11"
        assert res.total_evaluations == 960
        assert res.cycles == 20
        assert res.messages.coordination_messages == 565
        assert res.messages.newscast_exchanges == 320


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
