"""Shared utilities: deterministic RNG trees, configuration, numerics.

This package holds the cross-cutting plumbing used by every other
subsystem:

* :mod:`repro.utils.rng` — hierarchical, reproducible random-stream
  derivation.  Every experiment consumes exactly one master seed; all
  per-node / per-particle / per-service streams are derived from it so
  that runs are bit-reproducible regardless of execution order.
* :mod:`repro.utils.config` — validated configuration dataclasses for
  experiments and protocol parameters.
* :mod:`repro.utils.exceptions` — the library's exception hierarchy.
* :mod:`repro.utils.numerics` — small numeric helpers (safe logs,
  online statistics, clamping).
"""

from repro.utils.exceptions import (
    ConfigurationError,
    ReproError,
    SimulationError,
)
from repro.utils.rng import SeedSequenceTree
from repro.utils.numerics import (
    RunningStats,
    geometric_mean,
    safe_log10,
)

__all__ = [
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "SeedSequenceTree",
    "RunningStats",
    "geometric_mean",
    "safe_log10",
]
