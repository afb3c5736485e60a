"""Objective-function abstraction and registry.

A :class:`Function` bundles the callable with everything an optimizer
or experiment needs to use it correctly:

* dimensionality and box domain (used for particle initialization and
  velocity clamping),
* the known global optimum value and (when known) position, which
  define *solution quality* = ``f(best) − f*``,
* scalar and **batch** evaluation — the swarm update is vectorized
  over particles, so every function implements ``batch`` on an
  ``(m, d)`` array natively rather than looping.

The registry maps lower-case names (``"sphere"``, ``"griewank"``, ...)
to factories so experiment configs can be plain strings.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = ["Function", "register_function", "get_function", "available_functions"]


class Function(abc.ABC):
    """A box-constrained minimization problem.

    Parameters
    ----------
    dimension:
        Number of decision variables.
    lower, upper:
        Scalar box bounds applied to every coordinate.  (All paper
        functions use symmetric per-coordinate boxes; the attributes
        expose full arrays for generality.)
    """

    #: Registry name; subclasses override.
    NAME: str = "function"
    #: Default dimensionality used by the paper for this function.
    DEFAULT_DIMENSION: int = 10

    def __init__(self, dimension: int, lower: float, upper: float):
        if dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        if not lower < upper:
            raise ConfigurationError("require lower < upper bound")
        self.dimension = int(dimension)
        self.lower = np.full(self.dimension, float(lower))
        self.upper = np.full(self.dimension, float(upper))

    # -- evaluation -------------------------------------------------------------

    @abc.abstractmethod
    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate an ``(m, d)`` array of points; returns shape ``(m,)``.

        Implementations are pure NumPy with no Python-level loop over
        ``m`` — this is the hot path of every experiment.
        """

    def __call__(self, point: np.ndarray) -> float:
        """Evaluate a single point of shape ``(d,)``."""
        arr = np.asarray(point, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValueError(
                f"{self.NAME} expects shape ({self.dimension},), got {arr.shape}"
            )
        return float(self.batch(arr[None, :])[0])

    # -- problem metadata ---------------------------------------------------------

    @property
    def optimum_value(self) -> float:
        """Global minimum value ``f*`` (0.0 for the whole suite)."""
        return 0.0

    @property
    def optimum_position(self) -> np.ndarray | None:
        """A global minimizer, or ``None`` if not published/unique."""
        return None

    def quality(self, value: float) -> float:
        """Solution quality of an objective value: ``value − f*``.

        The paper's figure of merit ("distance between the best known
        global optimum and the solution obtained").  Clamped at 0 to
        absorb float round-off below the optimum.
        """
        return max(0.0, float(value) - self.optimum_value)

    # -- sampling -----------------------------------------------------------------

    def sample_uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform random points in the domain box, shape ``(count, d)``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return rng.uniform(self.lower, self.upper, size=(count, self.dimension))

    @property
    def domain_width(self) -> np.ndarray:
        """Per-dimension box width (used for velocity clamping)."""
        return self.upper - self.lower

    def _validate_batch(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(
                f"{self.NAME}.batch expects (m, {self.dimension}), got {pts.shape}"
            )
        return pts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(dimension={self.dimension}, "
            f"domain=[{self.lower[0]:g}, {self.upper[0]:g}])"
        )


_REGISTRY: dict[str, Callable[..., Function]] = {}


def register_function(name: str, factory: Callable[..., Function]) -> None:
    """Register a factory ``(dimension=None) -> Function`` under ``name``.

    Names are case-insensitive.  Re-registering a name is an error —
    silent shadowing would make experiment configs ambiguous.
    """
    key = name.lower()
    if key in _REGISTRY:
        raise ConfigurationError(f"function {name!r} is already registered")
    _REGISTRY[key] = factory


def get_function(name: str, dimension: int | None = None) -> Function:
    """Instantiate a registered function by name.

    ``dimension=None`` uses the function's paper default (2 for F2,
    10 for the rest).
    """
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown function {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(dimension) if dimension is not None else factory()


def available_functions() -> list[str]:
    """Sorted names of all registered functions."""
    return sorted(_REGISTRY)
