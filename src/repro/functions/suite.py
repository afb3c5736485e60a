"""The paper's six benchmark functions.

The paper omits analytic forms; the definitions below are the
canonical ones from the global-optimization benchmarking literature
(De Jong 1975; Zakharov via Törn & Žilinskas; Rosenbrock 1960;
Schaffer 1989; Griewank 1981), with domains following common PSO
benchmarking practice.  Every function's global minimum value is
exactly 0, so *solution quality* equals the best objective value
found.

Dimensions per the paper (Sec. 4, "Functions"): F2 is 2-dimensional,
all others default to 10.
"""

from __future__ import annotations

import numpy as np

from repro.functions.base import Function, register_function

__all__ = [
    "DeJongF2",
    "Zakharov",
    "Rosenbrock",
    "Sphere",
    "SchafferF6",
    "Griewank",
    "PAPER_FUNCTIONS",
]


class DeJongF2(Function):
    """De Jong's F2 — the 2-D Rosenbrock specialization.

    .. math:: f(x_1, x_2) = 100\\,(x_1^2 - x_2)^2 + (1 - x_1)^2

    Domain ``[-2.048, 2.048]^2`` (De Jong's original box); global
    minimum 0 at ``(1, 1)``.  The paper calls this function "easy".
    """

    NAME = "f2"
    DEFAULT_DIMENSION = 2

    def __init__(self, dimension: int | None = None):
        if dimension not in (None, 2):
            raise ValueError("De Jong F2 is defined in 2 dimensions")
        super().__init__(2, -2.048, 2.048)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        x1, x2 = pts[:, 0], pts[:, 1]
        return 100.0 * (x1**2 - x2) ** 2 + (1.0 - x1) ** 2

    @property
    def optimum_position(self) -> np.ndarray:
        return np.ones(2)


class Zakharov(Function):
    """Zakharov function.

    .. math::
        f(x) = \\sum_i x_i^2 + \\Big(\\sum_i 0.5\\,i\\,x_i\\Big)^2
               + \\Big(\\sum_i 0.5\\,i\\,x_i\\Big)^4

    (indices ``i`` counted from 1).  Unimodal but with a flat curved
    valley; domain ``[-5, 10]^d``; global minimum 0 at the origin.
    One of the paper's "nice" functions.
    """

    NAME = "zakharov"

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or self.DEFAULT_DIMENSION, -5.0, 10.0)
        self._weights = 0.5 * np.arange(1, self.dimension + 1, dtype=float)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        quad = np.sum(pts**2, axis=1)
        lin = np.einsum("ij,j->i", pts, self._weights)  # BLAS @ rounds by row place
        return quad + lin**2 + lin**4

    @property
    def optimum_position(self) -> np.ndarray:
        return np.zeros(self.dimension)


class Rosenbrock(Function):
    """Generalized Rosenbrock (banana) function.

    .. math::
        f(x) = \\sum_{i=1}^{d-1} 100\\,(x_{i+1} - x_i^2)^2 + (1 - x_i)^2

    Domain ``[-30, 30]^d`` (standard PSO benchmarking box); global
    minimum 0 at ``(1, …, 1)``.  A narrow curved valley makes the last
    digits hard; the paper groups it with the "nice" functions.
    """

    NAME = "rosenbrock"

    def __init__(self, dimension: int | None = None):
        dim = dimension or self.DEFAULT_DIMENSION
        if dim < 2:
            raise ValueError("Rosenbrock requires dimension >= 2")
        super().__init__(dim, -30.0, 30.0)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        head, tail = pts[:, :-1], pts[:, 1:]
        return np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=1)

    @property
    def optimum_position(self) -> np.ndarray:
        return np.ones(self.dimension)


class Sphere(Function):
    """Sphere (De Jong F1): :math:`f(x) = \\sum_i x_i^2`.

    Domain ``[-100, 100]^d``; global minimum 0 at the origin.  The
    simplest unimodal benchmark — PSO should reach machine precision.
    """

    NAME = "sphere"

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or self.DEFAULT_DIMENSION, -100.0, 100.0)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        # einsum evaluates the row dot-products in one fused pass —
        # measurably faster than pts**2 + sum on the fast path's
        # (n·k, d) batches.  Its accumulation order differs from
        # np.sum's pairwise reduction (~1e-11 relative), so sphere
        # trajectories shift vs pre-PR-3 runs; both engines route
        # through this method, so cross-engine identity is unaffected.
        return np.einsum("ij,ij->i", pts, pts)

    @property
    def optimum_position(self) -> np.ndarray:
        return np.zeros(self.dimension)


class SchafferF6(Function):
    """Schaffer's F6, generalized to ``d`` dimensions via the radius.

    .. math::
        f(x) = 0.5 + \\frac{\\sin^2\\!\\sqrt{\\lVert x\\rVert^2} - 0.5}
                           {\\big(1 + 0.001\\,\\lVert x\\rVert^2\\big)^2}

    Domain ``[-100, 100]^d``; global minimum 0 at the origin,
    surrounded by concentric rings of near-optimal local minima —
    the "hardest" function in the suite together with Griewank.
    (Schaffer's original is the 2-D case; the radial form is the
    standard d-dimensional generalization and coincides with it for
    d = 2.)

    Note the value 0.00972 that appears repeatedly in the paper's
    tables: it is the depth of the first ring of local minima — runs
    that get trapped there all report the same quality.
    """

    NAME = "schaffer"

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or self.DEFAULT_DIMENSION, -100.0, 100.0)

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        sq = np.sum(pts**2, axis=1)
        return 0.5 + (np.sin(np.sqrt(sq)) ** 2 - 0.5) / (1.0 + 0.001 * sq) ** 2

    @property
    def optimum_position(self) -> np.ndarray:
        return np.zeros(self.dimension)


class Griewank(Function):
    """Griewank function.

    .. math::
        f(x) = 1 + \\frac{1}{4000}\\sum_i x_i^2
                 - \\prod_i \\cos\\!\\Big(\\frac{x_i}{\\sqrt{i}}\\Big)

    (indices from 1).  Domain ``[-600, 600]^d``; global minimum 0 at
    the origin with an exponential number of regularly spaced local
    minima.  The paper's other "hard" function; it never reaches the
    1e-10 threshold in Table 4.
    """

    NAME = "griewank"

    def __init__(self, dimension: int | None = None):
        super().__init__(dimension or self.DEFAULT_DIMENSION, -600.0, 600.0)
        self._sqrt_idx = np.sqrt(np.arange(1, self.dimension + 1, dtype=float))

    def batch(self, points: np.ndarray) -> np.ndarray:
        pts = self._validate_batch(points)
        quad = np.sum(pts**2, axis=1) / 4000.0
        prod = np.prod(np.cos(pts / self._sqrt_idx), axis=1)
        return 1.0 + quad - prod

    @property
    def optimum_position(self) -> np.ndarray:
        return np.zeros(self.dimension)


#: The paper's evaluation suite, in the order of its tables.
PAPER_FUNCTIONS: tuple[str, ...] = (
    "f2",
    "zakharov",
    "rosenbrock",
    "sphere",
    "schaffer",
    "griewank",
)

register_function("f2", lambda dim=None: DeJongF2(dim))
register_function("dejong_f2", lambda dim=None: DeJongF2(dim))
register_function("zakharov", lambda dim=None: Zakharov(dim))
register_function("rosenbrock", lambda dim=None: Rosenbrock(dim))
register_function("sphere", lambda dim=None: Sphere(dim))
register_function("schaffer", lambda dim=None: SchafferF6(dim))
register_function("schaffer_f6", lambda dim=None: SchafferF6(dim))
register_function("griewank", lambda dim=None: Griewank(dim))
