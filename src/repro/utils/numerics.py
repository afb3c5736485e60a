"""Small numeric helpers shared across subsystems.

Everything here is dependency-light and heavily unit-tested because
downstream statistics (the paper's avg/min/max/Var table columns) are
computed through these helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RunningStats",
    "clamp_array",
    "geometric_mean",
    "safe_log10",
]

#: Floor applied before taking log10 of solution qualities, so that an
#: exact hit on the optimum (quality 0.0) plots as a large-but-finite
#: negative value rather than -inf.  The paper's plots bottom out
#: around 1e-300; we use a slightly conservative floor.
LOG_FLOOR = 1e-320


def safe_log10(values, floor: float = LOG_FLOOR):
    """Return ``log10(max(values, floor))`` elementwise.

    Used to produce the "Solution quality (log)" axes of Figures 1–3
    without ``-inf`` poisoning axis limits when a run lands exactly on
    the optimum.

    Parameters
    ----------
    values:
        Scalar or array-like of non-negative numbers.
    floor:
        Smallest representable quality; values below it are clamped.
    """
    arr = np.asarray(values, dtype=float)
    if np.any(arr < 0):
        raise ValueError("safe_log10 expects non-negative values (qualities)")
    out = np.log10(np.maximum(arr, floor))
    if out.ndim == 0:
        return float(out)
    return out


def clamp_array(values: np.ndarray, lower, upper, out: np.ndarray | None = None):
    """Clamp ``values`` into ``[lower, upper]`` (elementwise, broadcastable).

    Thin wrapper over :func:`numpy.clip` that validates bound ordering,
    which ``np.clip`` silently does not.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if np.any(lo > hi):
        raise ValueError("clamp_array: lower bound exceeds upper bound")
    return np.clip(values, lo, hi, out=out)


def geometric_mean(values) -> float:
    """Geometric mean of positive values (log-domain, overflow-safe).

    Solution qualities span ~300 orders of magnitude across functions,
    so arithmetic means are meaningless for cross-run aggregation; the
    analysis module offers geometric means as a robust alternative.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass
class RunningStats:
    """Welford online mean/variance with min/max tracking.

    Numerically stable single-pass statistics; mirrors the columns of
    the paper's Tables 1, 3 and 4 (avg, min, max, Var).

    Examples
    --------
    >>> s = RunningStats()
    >>> for x in [1.0, 2.0, 3.0]:
    ...     s.push(x)
    >>> s.mean, s.minimum, s.maximum
    (2.0, 1.0, 3.0)
    >>> round(s.variance, 10)   # population variance
    0.6666666667
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)
    minimum: float = math.inf
    maximum: float = -math.inf

    def push(self, value: float) -> None:
        """Fold one observation into the statistics."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("RunningStats.push: NaN observation")
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values) -> None:
        """Fold an iterable of observations."""
        for v in values:
            self.push(v)

    @property
    def variance(self) -> float:
        """Population variance (the paper reports population Var)."""
        if self.count == 0:
            return math.nan
        return self._m2 / self.count

    @property
    def std(self) -> float:
        """Population standard deviation."""
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return the statistics of the union of two sample sets.

        Uses Chan et al.'s parallel combination formula; lets the
        analysis layer aggregate per-worker statistics without
        re-walking raw observations.
        """
        if other.count == 0:
            return self._copy()
        if self.count == 0:
            return other._copy()
        combined = RunningStats()
        combined.count = self.count + other.count
        delta = other.mean - self.mean
        combined.mean = self.mean + delta * other.count / combined.count
        combined._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / combined.count
        )
        combined.minimum = min(self.minimum, other.minimum)
        combined.maximum = max(self.maximum, other.maximum)
        return combined

    def _copy(self) -> "RunningStats":
        c = RunningStats()
        c.count = self.count
        c.mean = self.mean
        c._m2 = self._m2
        c.minimum = self.minimum
        c.maximum = self.maximum
        return c

    def as_dict(self) -> dict[str, float]:
        """Table-row form: ``{"avg", "min", "max", "var", "count"}``."""
        return {
            "avg": self.mean,
            "min": self.minimum if self.count else math.nan,
            "max": self.maximum if self.count else math.nan,
            "var": self.variance,
            "count": float(self.count),
        }
