"""Registry-wide batch/pointwise contract (hypothesis-backed).

Every *named* function in the registry — including aliases and any
function registered after this test was written — must satisfy the
``Function`` evaluation contract the engines rely on:

* ``batch(points)`` equals ``[f(p) for p in points]`` to floating-point
  roundoff (the SoA fast path evaluates batched, the reference solver
  pointwise; any gap beyond sum-reordering noise would silently break
  cross-engine equivalence);
* a row's value does not depend on the batch around it (the fast
  engine's ``(n·k, d)`` batch and a node's own ``(k, d)`` batch must
  agree bit for bit, or the r = k identity tier breaks);
* ``batch`` returns float64 of shape ``(rows,)``;
* ``__call__`` returns a finite plain float inside the domain box.

Unlike :mod:`tests.functions.test_properties` (which checks the
mathematical invariants of a hand-picked class list), this sweep is
driven off :func:`repro.functions.base.available_functions`, so a new
registry entry is covered the moment it is registered.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.functions.base import available_functions, get_function

ALL_NAMES = available_functions()


def _registry_points(name: str, max_rows: int = 6):
    """Strategy: batches of points inside the named function's box."""
    f = get_function(name)
    lo = float(np.max(f.lower))
    hi = float(np.min(f.upper))
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, max_rows), st.just(f.dimension)),
        elements=st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )


def test_registry_is_populated():
    assert len(ALL_NAMES) >= 8


@pytest.mark.parametrize("name", ALL_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_matches_pointwise(name, data):
    fn = get_function(name)
    points = data.draw(_registry_points(name))
    batched = fn.batch(points)

    assert isinstance(batched, np.ndarray)
    assert batched.dtype == np.float64
    assert batched.shape == (points.shape[0],)

    # Snapshot before the pointwise calls: implementations may return
    # a view of an internal scratch buffer that the next batch() call
    # overwrites (the registry contract allows that — callers consume
    # results before re-evaluating).
    batched = batched.copy()
    pointwise = np.array([fn(p) for p in points], dtype=np.float64)
    # Tight tolerance, not exact: BLAS may reorder sums between the
    # one-row and many-row code paths (last-ulp differences only).
    np.testing.assert_allclose(batched, pointwise, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ALL_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_rows_do_not_depend_on_their_neighbours(name, data):
    fn = get_function(name)
    points = data.draw(_registry_points(name, max_rows=40))
    whole = fn.batch(points).copy()
    start = data.draw(st.integers(0, points.shape[0] - 1))
    stop = data.draw(st.integers(start + 1, points.shape[0]))
    part = fn.batch(points[start:stop]).copy()
    np.testing.assert_array_equal(part, whole[start:stop])
    for row in range(start, stop):
        assert fn.batch(points[row:row + 1])[0] == whole[row]


@pytest.mark.parametrize("name", ALL_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pointwise_values_are_finite_floats(name, data):
    fn = get_function(name)
    points = data.draw(_registry_points(name, max_rows=1))
    value = fn(points[0])
    assert isinstance(value, float)
    assert np.isfinite(value)
