"""Sharded runs are statistically equivalent to the single-process fast engine.

The partition must be invisible: the same scenario run over 2 or 3
shards has identical synchronous structure (cycle counts, evaluation
totals, stop reasons) and quality in the same statistical regime as
``engine="fast"`` in one process — only the gossip/topology random
streams differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenario import ExecutionPolicy, Scenario, Session
from repro.sharding import ShardPlan, run_sharded
from repro.sharding.views import make_shard_views
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import SeedSequenceTree


def _scenario(**overrides) -> Scenario:
    base = dict(
        function="sphere",
        nodes=32,
        total_evaluations=2560,
        max_cycles=60,
        engine="fast",
        repetitions=1,
        seed=11,
    )
    base.update(overrides)
    return Scenario(**base)


def test_budget_structure_matches_single_process_exactly():
    """Cycles, evaluation totals and stop reason are barrier-exact."""
    scenario = _scenario()
    single = Session(scenario).run_one(0)
    for shards in (2, 3):
        rec = run_sharded(scenario, repetition=0, shards=shards)
        assert rec.cycles == single.cycles
        assert rec.total_evaluations == single.total_evaluations
        assert rec.stop_reason == single.stop_reason == "budget"
        assert np.isfinite(rec.best_value)


def test_quality_in_same_statistical_regime():
    """Mean log-quality over repetitions lands in the same regime."""
    reps = 4

    def log_qualities(runner):
        out = []
        for rep in range(reps):
            q = runner(rep)
            out.append(np.log10(max(q, 1e-300)))
        return np.asarray(out)

    scenario = _scenario()
    single = log_qualities(lambda r: Session(scenario).run_one(r).quality)
    sharded = log_qualities(
        lambda r: run_sharded(scenario, repetition=r, shards=2).quality
    )
    # different random streams, same optimizer dynamics: the means sit
    # within a few orders of magnitude on a trajectory spanning dozens
    assert abs(single.mean() - sharded.mean()) < 3.0


def test_threshold_stop_reached_by_both():
    scenario = _scenario(
        quality_threshold=1.0, total_evaluations=64000, max_cycles=400
    )
    single = Session(scenario).run_one(0)
    rec = run_sharded(scenario, repetition=0, shards=2)
    assert single.stop_reason == "threshold"
    assert rec.stop_reason == "threshold"
    assert rec.quality <= 1.0
    # similar time-to-threshold (same dynamics, different streams)
    assert abs(rec.cycles - single.cycles) <= max(5, single.cycles)


def test_session_policy_entry_point_matches_run_sharded():
    scenario = _scenario()
    via_session = Session(scenario).run(policy=ExecutionPolicy(shards=2))
    direct = run_sharded(scenario, repetition=0, shards=2)
    assert via_session.records[0] == direct


def test_sharded_newscast_overlay_mixes_across_shards():
    """After warm-up the partitioned overlay looks like one overlay:
    views are full, self-free, and hold a healthy fraction of remote
    peers on both sides of the cut."""
    plan = ShardPlan(nodes=64, shards=2)
    tree = SeedSequenceTree(5)
    views = [
        make_shard_views(
            "newscast", plan, s, 20,
            tree.rng("topology", "newscast", "shard", s),
        )
        for s in range(2)
    ]
    for cycle in range(30):
        outs = [v.begin_cycle(cycle) for v in views]
        replies = []
        for d, v in enumerate(views):
            incoming = {
                src: outs[src][d]
                for src in range(2)
                if src != d and d in outs[src]
            }
            replies.append(v.apply_requests(incoming))
        for d, v in enumerate(views):
            incoming = {
                src: replies[src][d]
                for src in range(2)
                if src != d and d in replies[src]
            }
            v.apply_replies(incoming)
    for s, v in enumerate(views):
        matrix = v.neighbor_matrix()
        lo, hi = plan.block(s)
        own = np.arange(lo, hi)
        # full views, valid global ids, no self-loops
        assert (matrix >= 0).all() and (matrix < plan.nodes).all()
        assert not (matrix == own[:, None]).any()
        # cross-shard mixing: a fair share of entries are remote
        remote = ((matrix < lo) | (matrix >= hi)).mean()
        assert 0.2 < remote < 0.8
        assert v.exchanges > 0
        # the count vector the draws read agrees with the decoded rows
        np.testing.assert_array_equal(v._counts, (matrix >= 0).sum(axis=1))


def test_shard_views_reject_ids_beyond_the_packed_id_field():
    """Global ids are written into packed descriptors; the bound fails
    at construction (a duck-typed plan: a real one of this size would
    not fit in memory)."""
    from types import SimpleNamespace

    from repro.core.kernels.numpy_backend import MAX_ID

    plan = SimpleNamespace(nodes=MAX_ID + 2, block=lambda shard: (0, 4))
    with pytest.raises(ConfigurationError, match=f"id bound .{MAX_ID}."):
        make_shard_views("newscast", plan, 0, 4, np.random.default_rng(0))


def test_run_sharded_rejects_impossible_shard_counts():
    """Which *scenarios* shard is the ``shards`` column of
    ``repro.scenario.support`` (tests/scenario/test_support.py); the
    count itself is the plan's range check."""
    ok = _scenario()
    for shards in (0, 33):
        with pytest.raises(ConfigurationError, match="ShardPlan.shards"):
            run_sharded(ok, shards=shards)
