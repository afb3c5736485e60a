"""Tests for the paper's six benchmark functions.

Each function is checked against hand-computed values, its known
optimum, and its registry entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.functions import (
    DeJongF2,
    Griewank,
    PAPER_FUNCTIONS,
    Rosenbrock,
    SchafferF6,
    Sphere,
    Zakharov,
    available_functions,
    get_function,
)
from repro.utils.exceptions import ConfigurationError

ALL_SUITE = [DeJongF2, Zakharov, Rosenbrock, Sphere, SchafferF6, Griewank]


class TestOptimaAndDomains:
    @pytest.mark.parametrize("cls", ALL_SUITE)
    def test_value_at_optimum_is_zero(self, cls):
        f = cls()
        pos = f.optimum_position
        assert pos is not None
        assert f(pos) == pytest.approx(0.0, abs=1e-12)
        assert f.optimum_value == 0.0

    @pytest.mark.parametrize("cls", ALL_SUITE)
    def test_optimum_inside_domain(self, cls):
        f = cls()
        assert np.all((f.optimum_position >= f.lower) & (f.optimum_position <= f.upper))

    @pytest.mark.parametrize("cls", ALL_SUITE)
    def test_random_points_not_below_optimum(self, cls, rng):
        f = cls()
        pts = f.sample_uniform(rng, 200)
        vals = f.batch(pts)
        assert np.all(vals >= -1e-12)

    def test_paper_dimensions(self):
        assert DeJongF2().dimension == 2
        for cls in (Zakharov, Rosenbrock, Sphere, SchafferF6, Griewank):
            assert cls().dimension == 10


class TestHandComputedValues:
    def test_sphere(self):
        f = Sphere(3)
        assert f(np.array([1.0, 2.0, 3.0])) == pytest.approx(14.0)

    def test_f2(self):
        f = DeJongF2()
        # 100*(x1^2 - x2)^2 + (1-x1)^2 at (2, 1) = 100*9 + 1 = 901
        assert f(np.array([2.0, 1.0])) == pytest.approx(901.0)

    def test_rosenbrock_2d_matches_f2_form(self):
        f = Rosenbrock(2)
        x = np.array([1.5, 2.0])
        expected = 100.0 * (2.0 - 1.5**2) ** 2 + (1 - 1.5) ** 2
        assert f(x) == pytest.approx(expected)

    def test_zakharov(self):
        f = Zakharov(2)
        x = np.array([1.0, 1.0])
        s = 0.5 * 1 * 1.0 + 0.5 * 2 * 1.0  # 1.5
        expected = 2.0 + s**2 + s**4
        assert f(x) == pytest.approx(expected)

    def test_griewank_at_pi_ish(self):
        f = Griewank(2)
        x = np.array([1.0, 2.0])
        expected = 1.0 + (1 + 4) / 4000.0 - np.cos(1.0) * np.cos(2.0 / np.sqrt(2.0))
        assert f(x) == pytest.approx(expected)

    def test_schaffer_2d_known_form(self):
        f = SchafferF6(2)
        x = np.array([3.0, 4.0])  # radius 5
        sq = 25.0
        expected = 0.5 + (np.sin(np.sqrt(sq)) ** 2 - 0.5) / (1 + 0.001 * sq) ** 2
        assert f(x) == pytest.approx(expected)

    def test_schaffer_first_ring_depth(self):
        """The 0.00972 value recurring in the paper's tables is the
        depth of Schaffer's first ring of local minima."""
        f = SchafferF6(2)
        # First local-minimum ring is near radius ~ 3π/2 where sin² is 0
        # again; scan radii to find the first nonzero local min depth.
        radii = np.linspace(2.0, 7.0, 20001)
        pts = np.stack([radii, np.zeros_like(radii)], axis=1)
        vals = f.batch(pts)
        ring_depth = float(vals.min())
        assert ring_depth == pytest.approx(0.00972, abs=2e-4)


class TestBatchSemantics:
    @pytest.mark.parametrize("cls", ALL_SUITE)
    def test_batch_matches_scalar(self, cls, rng):
        f = cls()
        pts = f.sample_uniform(rng, 32)
        batch_vals = f.batch(pts)
        scalar_vals = np.array([f(p) for p in pts])
        assert np.allclose(batch_vals, scalar_vals, rtol=1e-12)

    def test_batch_shape_validation(self):
        f = Sphere(4)
        with pytest.raises(ValueError):
            f.batch(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            f.batch(np.zeros(4))  # 1-D is not a batch

    def test_scalar_shape_validation(self):
        f = Sphere(4)
        with pytest.raises(ValueError):
            f(np.zeros(5))

    def test_empty_batch(self):
        f = Sphere(4)
        assert f.batch(np.zeros((0, 4))).shape == (0,)


class TestRegistry:
    def test_paper_functions_all_registered(self):
        names = available_functions()
        for fname in PAPER_FUNCTIONS:
            assert fname in names

    def test_get_function_default_dimension(self):
        assert get_function("f2").dimension == 2
        assert get_function("sphere").dimension == 10

    def test_get_function_custom_dimension(self):
        assert get_function("sphere", dimension=5).dimension == 5

    def test_unknown_function(self):
        with pytest.raises(ConfigurationError):
            get_function("nonexistent")

    def test_case_insensitive(self):
        assert get_function("SPHERE").NAME == "sphere"

    def test_aliases(self):
        assert get_function("dejong_f2").NAME == "f2"
        assert get_function("schaffer_f6").NAME == "schaffer"

    def test_f2_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            get_function("f2", dimension=5)

    def test_rosenbrock_needs_two_dims(self):
        with pytest.raises(ValueError):
            get_function("rosenbrock", dimension=1)


class TestDifficultyOrdering:
    def test_random_search_reflects_paper_difficulty(self, rng):
        """Under equal random sampling, the 'hard' functions stay far
        from their optimum relative to their value range — a coarse
        sanity check of the paper's easy/nice/hard classification."""
        budget = 2000
        normalized = {}
        for name in ("sphere", "griewank", "schaffer"):
            f = get_function(name)
            vals = f.batch(f.sample_uniform(rng, budget))
            normalized[name] = float(vals.min() / np.median(vals))
        # Sphere: random best ≪ median. Schaffer: best ≈ median scale.
        assert normalized["sphere"] < normalized["schaffer"]
