"""Additional benchmark functions beyond the paper's suite.

These extend the evaluation for the reproduction's ablations.  All
are standard test functions, shifted where necessary so the global
minimum value is 0 — keeping the library-wide invariant quality = best
objective value.
"""

from __future__ import annotations

import numpy as np

from repro.functions.base import Function, register_function

__all__ = ["Rastrigin", "Ackley", "Schwefel", "Levy"]


class Rastrigin(Function):
    """Rastrigin function.

    .. math::
        f(x) = 10 d + \\sum_i \\big(x_i^2 - 10\\cos(2\\pi x_i)\\big)

    Domain ``[-5.12, 5.12]^d``; global minimum 0 at the origin;
    a regular lattice of deep local minima.
    """

    NAME = "rastrigin"

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or self.DEFAULT_DIMENSION, -5.12, 5.12)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        return 10.0 * self.dimension + np.sum(
            pts**2 - 10.0 * np.cos(2.0 * np.pi * pts), axis=1
        )

    @property
    def optimum_position(self) -> np.ndarray:
        return np.zeros(self.dimension)


class Ackley(Function):
    """Ackley function.

    .. math::
        f(x) = -20 e^{-0.2\\sqrt{\\frac1d \\sum x_i^2}}
               - e^{\\frac1d \\sum \\cos(2\\pi x_i)} + 20 + e

    Domain ``[-32.768, 32.768]^d``; global minimum 0 at the origin;
    a nearly flat outer region with a deep central funnel.
    """

    NAME = "ackley"

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or self.DEFAULT_DIMENSION, -32.768, 32.768)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        d = self.dimension
        term1 = -20.0 * np.exp(-0.2 * np.sqrt(np.sum(pts**2, axis=1) / d))
        term2 = -np.exp(np.sum(np.cos(2.0 * np.pi * pts), axis=1) / d)
        raw = term1 + term2 + 20.0 + np.e
        # exp round-off can leave values a few ulp below zero at the optimum.
        return np.maximum(raw, 0.0)

    @property
    def optimum_position(self) -> np.ndarray:
        return np.zeros(self.dimension)


class Schwefel(Function):
    """Schwefel 2.26, shifted so the global minimum value is 0.

    .. math::
        f(x) = 418.9828872724339\\,d - \\sum_i x_i \\sin\\sqrt{|x_i|}

    Domain ``[-500, 500]^d``; global minimizer near
    ``x_i = 420.968746``.  The best region sits close to the domain
    boundary, far from the origin — a deceptive layout that punishes
    center-biased optimizers.
    """

    NAME = "schwefel"

    _SHIFT_PER_DIM = 418.9828872724339

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or self.DEFAULT_DIMENSION, -500.0, 500.0)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        raw = self._SHIFT_PER_DIM * self.dimension - np.sum(
            pts * np.sin(np.sqrt(np.abs(pts))), axis=1
        )
        return np.maximum(raw, 0.0)

    @property
    def optimum_position(self) -> np.ndarray:
        return np.full(self.dimension, 420.968746)


class Levy(Function):
    """Levy function.

    .. math::
        f(x) = \\sin^2(\\pi w_1)
             + \\sum_{i<d} (w_i-1)^2 [1 + 10\\sin^2(\\pi w_i + 1)]
             + (w_d-1)^2 [1 + \\sin^2(2\\pi w_d)],
        \\quad w_i = 1 + (x_i - 1)/4

    Domain ``[-10, 10]^d``; global minimum 0 at ``(1, …, 1)``.
    """

    NAME = "levy"

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or self.DEFAULT_DIMENSION, -10.0, 10.0)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        w = 1.0 + (pts - 1.0) / 4.0
        head = np.sin(np.pi * w[:, 0]) ** 2
        mid = np.sum(
            (w[:, :-1] - 1.0) ** 2
            * (1.0 + 10.0 * np.sin(np.pi * w[:, :-1] + 1.0) ** 2),
            axis=1,
        )
        tail = (w[:, -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[:, -1]) ** 2)
        return head + mid + tail

    @property
    def optimum_position(self) -> np.ndarray:
        return np.ones(self.dimension)


register_function("rastrigin", lambda dim=None: Rastrigin(dim))
register_function("ackley", lambda dim=None: Ackley(dim))
register_function("schwefel", lambda dim=None: Schwefel(dim))
register_function("levy", lambda dim=None: Levy(dim))
