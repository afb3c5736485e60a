"""Property-based tests (hypothesis) over the benchmark functions.

These verify mathematical invariants that must hold for *every* point
in the domain, not just hand-picked ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.functions import (
    Ackley,
    DeJongF2,
    Griewank,
    Rastrigin,
    Rosenbrock,
    SchafferF6,
    Sphere,
    Zakharov,
)

ALL = [DeJongF2, Zakharov, Rosenbrock, Sphere, SchafferF6, Griewank, Rastrigin, Ackley]


def domain_points(cls, max_rows: int = 8):
    """Strategy: batches of points inside ``cls``'s domain box."""
    f = cls()
    lo, hi = float(f.lower[0]), float(f.upper[0])
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, max_rows), st.just(f.dimension)),
        elements=st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )


@pytest.mark.parametrize("cls", ALL)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_values_finite_and_above_optimum(cls, data):
    """f is finite everywhere in the box and never beats its optimum."""
    f = cls()
    pts = data.draw(domain_points(cls))
    vals = f.batch(pts)
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= f.optimum_value - 1e-9)


@pytest.mark.parametrize("cls", [Sphere, Rastrigin, Ackley, SchafferF6, Griewank])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_symmetry_under_negation(cls, data):
    """These functions are even: f(x) == f(−x)."""
    f = cls()
    pts = data.draw(domain_points(cls))
    assert np.allclose(f.batch(pts), f.batch(-pts), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("cls", [Sphere, SchafferF6, Ackley])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_radial_functions_permutation_invariant(cls, data):
    """Radial/separable-symmetric functions ignore coordinate order."""
    f = cls()
    pts = data.draw(domain_points(cls))
    perm = np.random.default_rng(0).permutation(f.dimension)
    assert np.allclose(f.batch(pts), f.batch(pts[:, perm]), rtol=1e-9, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=-100, max_value=100),
    scale=st.floats(min_value=1.1, max_value=5.0),
)
def test_sphere_radial_monotonicity(x, scale):
    """Moving radially outward never decreases Sphere."""
    f = Sphere(3)
    p = np.array([x, x / 2, -x / 3])
    assert f(np.clip(p * scale, -100, 100)) >= f(p) - 1e-9


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_quality_clamps_at_zero(data):
    """quality() never returns negative, even for tiny negatives."""
    f = Sphere(2)
    v = data.draw(st.floats(min_value=-1e-9, max_value=1e9, allow_nan=False))
    assert f.quality(v) >= 0.0


@pytest.mark.parametrize("cls", ALL)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_domain_samples_lie_inside_the_box(cls, data):
    """Uniform domain samples always lie inside the box."""
    f = cls()
    seed = data.draw(st.integers(0, 2**16))
    pts = f.sample_uniform(np.random.default_rng(seed), 16)
    assert np.all((pts >= f.lower) & (pts <= f.upper))
