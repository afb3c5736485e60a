"""Tests for the Optimum value object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optimum import Optimum


class TestOptimum:
    def test_construction(self):
        opt = Optimum(np.array([1.0, 2.0]), 3.5)
        assert opt.value == 3.5
        assert opt.dimension == 2
        assert np.array_equal(opt.position, [1.0, 2.0])

    def test_position_is_read_only(self):
        opt = Optimum(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            opt.position[0] = 9.0

    def test_position_copied_from_source(self):
        src = np.array([1.0, 2.0])
        opt = Optimum(src, 0.0)
        src[0] = 99.0
        assert opt.position[0] == 1.0

    def test_ordering(self):
        a = Optimum(np.zeros(2), 1.0)
        b = Optimum(np.ones(2), 2.0)
        assert a < b
        assert not (b < a)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Optimum(np.zeros(2), float("nan"))

    def test_accepts_list_position(self):
        opt = Optimum([1.0, 2.0], 0.5)  # type: ignore[arg-type]
        assert opt.dimension == 2

    def test_inf_value_allowed(self):
        # inf = "knows nothing yet" is a legitimate sentinel.
        opt = Optimum(np.zeros(2), float("inf"))
        assert opt.value == float("inf")
