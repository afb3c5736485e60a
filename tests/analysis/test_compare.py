"""Tests for the statistical comparison helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.compare import (
    bootstrap_log_ci,
    compare_systems,
    rank_sum_test,
)


class TestBootstrapCI:
    def test_ci_brackets_median(self, rng):
        qualities = 10.0 ** rng.normal(-5.0, 1.0, size=40)
        med, lo, hi = bootstrap_log_ci(qualities, seed=1)
        assert lo <= med <= hi
        assert -6.5 < med < -3.5

    def test_narrower_with_more_data(self, rng):
        small = 10.0 ** rng.normal(-5.0, 1.0, size=8)
        large = 10.0 ** rng.normal(-5.0, 1.0, size=200)
        _, lo_s, hi_s = bootstrap_log_ci(small, seed=2)
        _, lo_l, hi_l = bootstrap_log_ci(large, seed=2)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_deterministic_given_seed(self, rng):
        q = 10.0 ** rng.normal(-3.0, 2.0, size=20)
        assert bootstrap_log_ci(q, seed=5) == bootstrap_log_ci(q, seed=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_log_ci([], seed=0)
        with pytest.raises(ValueError):
            bootstrap_log_ci([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_log_ci([1.0], resamples=10)
        with pytest.raises(ValueError):
            bootstrap_log_ci([-1.0])


class TestRankSumTest:
    def test_clearly_different_samples(self, rng):
        a = 10.0 ** rng.normal(-10.0, 0.5, size=20)
        b = 10.0 ** rng.normal(-2.0, 0.5, size=20)
        _, p = rank_sum_test(a, b)
        assert p < 1e-4

    def test_same_distribution_not_significant(self, rng):
        a = 10.0 ** rng.normal(-5.0, 1.0, size=20)
        b = 10.0 ** rng.normal(-5.0, 1.0, size=20)
        _, p = rank_sum_test(a, b)
        assert p > 0.01

    def test_all_identical_values(self):
        _, p = rank_sum_test([1.0] * 5, [1.0] * 5)
        assert p == 1.0

    def test_symmetry(self, rng):
        a = 10.0 ** rng.normal(-7.0, 1.0, size=15)
        b = 10.0 ** rng.normal(-4.0, 1.0, size=15)
        _, p_ab = rank_sum_test(a, b)
        _, p_ba = rank_sum_test(b, a)
        assert p_ab == pytest.approx(p_ba, rel=1e-9)

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            rank_sum_test([1.0], [1.0, 2.0])

    def test_matches_scipy(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        a = 10.0 ** rng.normal(-6.0, 1.0, size=18)
        b = 10.0 ** rng.normal(-5.0, 1.0, size=22)
        _, p_ours = rank_sum_test(a, b)
        ref = scipy_stats.mannwhitneyu(
            np.log10(a), np.log10(b), alternative="two-sided",
            method="asymptotic", use_continuity=False,
        )
        assert p_ours == pytest.approx(ref.pvalue, rel=0.05)


class TestCompareSystems:
    def test_verdict_direction(self, rng):
        better = 10.0 ** rng.normal(-12.0, 0.5, size=15)
        worse = 10.0 ** rng.normal(-3.0, 0.5, size=15)
        cmp = compare_systems(better, worse)
        assert cmp.advantage_orders > 5.0
        assert cmp.significant
        assert "A leads" in cmp.verdict()

    def test_verdict_names(self, rng):
        a = 10.0 ** rng.normal(-1.0, 0.5, size=10)
        b = 10.0 ** rng.normal(-9.0, 0.5, size=10)
        text = compare_systems(a, b).verdict("framework", "baseline")
        assert "baseline leads" in text


@settings(max_examples=30, deadline=None)
@given(
    shift=st.floats(min_value=0.0, max_value=8.0),
    seed=st.integers(0, 1000),
)
def test_property_advantage_tracks_shift(shift, seed):
    """The measured advantage tracks the true log-median separation."""
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.normal(-5.0 - shift, 0.5, size=25)
    b = 10.0 ** rng.normal(-5.0, 0.5, size=25)
    cmp = compare_systems(a, b)
    assert cmp.advantage_orders == pytest.approx(shift, abs=1.0)
