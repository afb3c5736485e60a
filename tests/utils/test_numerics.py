"""Tests for numeric helpers (stats feeding the paper's tables)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.numerics import (
    RunningStats,
    clamp_array,
    geometric_mean,
    safe_log10,
)


class TestSafeLog10:
    def test_scalar(self):
        assert safe_log10(100.0) == pytest.approx(2.0)

    def test_zero_is_floored(self):
        out = safe_log10(0.0)
        assert math.isfinite(out)
        assert out < -300

    def test_array(self):
        out = safe_log10([1.0, 10.0, 0.0])
        assert out.shape == (3,)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        assert math.isfinite(out[2])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            safe_log10(-1.0)

    def test_custom_floor(self):
        assert safe_log10(0.0, floor=1e-5) == pytest.approx(-5.0)


class TestClampArray:
    def test_basic(self):
        out = clamp_array(np.array([-5.0, 0.5, 5.0]), -1.0, 1.0)
        assert np.array_equal(out, [-1.0, 0.5, 1.0])

    def test_vector_bounds(self):
        vals = np.array([[10.0, -10.0]])
        out = clamp_array(vals, np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
        assert np.array_equal(out, [[1.0, -2.0]])

    def test_inverted_bounds_raise(self):
        with pytest.raises(ValueError):
            clamp_array(np.zeros(3), 1.0, -1.0)

    def test_in_place(self):
        vals = np.array([3.0, -3.0])
        out = clamp_array(vals, -1.0, 1.0, out=vals)
        assert out is vals
        assert np.array_equal(vals, [1.0, -1.0])


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_huge_range_does_not_overflow(self):
        assert geometric_mean([1e-300, 1e300]) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert math.isnan(s.variance)

    def test_single_value(self):
        s = RunningStats()
        s.push(3.0)
        assert s.mean == 3.0
        assert s.minimum == 3.0
        assert s.maximum == 3.0
        assert s.variance == 0.0

    def test_matches_numpy(self, rng):
        values = rng.normal(5.0, 2.0, size=200)
        s = RunningStats()
        s.extend(values)
        assert s.mean == pytest.approx(np.mean(values))
        assert s.variance == pytest.approx(np.var(values))
        assert s.minimum == np.min(values)
        assert s.maximum == np.max(values)
        assert s.std == pytest.approx(np.std(values))

    def test_nan_rejected(self):
        s = RunningStats()
        with pytest.raises(ValueError):
            s.push(float("nan"))

    def test_merge_matches_pooled(self, rng):
        a_vals = rng.normal(size=50)
        b_vals = rng.normal(loc=3.0, size=70)
        a, b = RunningStats(), RunningStats()
        a.extend(a_vals)
        b.extend(b_vals)
        merged = a.merge(b)
        pooled = np.concatenate([a_vals, b_vals])
        assert merged.count == 120
        assert merged.mean == pytest.approx(np.mean(pooled))
        assert merged.variance == pytest.approx(np.var(pooled))
        assert merged.minimum == np.min(pooled)
        assert merged.maximum == np.max(pooled)

    def test_merge_with_empty(self):
        a = RunningStats()
        a.extend([1.0, 2.0])
        empty = RunningStats()
        assert a.merge(empty).mean == a.mean
        assert empty.merge(a).count == 2

    def test_as_dict_keys(self):
        s = RunningStats()
        s.push(1.0)
        d = s.as_dict()
        assert set(d) == {"avg", "min", "max", "var", "count"}


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
def test_property_running_stats_vs_numpy(values):
    """Welford's algorithm matches the direct two-pass computation."""
    s = RunningStats()
    s.extend(values)
    arr = np.asarray(values)
    assert s.mean == pytest.approx(np.mean(arr), rel=1e-9, abs=1e-9)
    assert s.variance == pytest.approx(np.var(arr), rel=1e-6, abs=1e-6)
    assert s.minimum == np.min(arr)
    assert s.maximum == np.max(arr)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
)
def test_property_merge_equals_pooled(xs, ys):
    """merge(a, b) is exactly the stats of the concatenation."""
    a, b, pooled = RunningStats(), RunningStats(), RunningStats()
    a.extend(xs)
    b.extend(ys)
    pooled.extend(xs + ys)
    merged = a.merge(b)
    assert merged.count == pooled.count
    assert merged.mean == pytest.approx(pooled.mean, rel=1e-9, abs=1e-9)
    assert merged.variance == pytest.approx(pooled.variance, rel=1e-6, abs=1e-6)
