"""Time-aware objectives: the ``Problem`` layer over static ``Function``\\ s.

The paper's benchmark suite is static — ``f(x)`` never changes — but
the gossip design it evaluates trades *freshness* for bandwidth, and
that trade-off only becomes measurable when the landscape moves.  This
module refactors evaluation from stateless ``Function.batch(points)``
into a time-aware seam:

* :class:`EvalContext` carries *when* (virtual time / engine cycle) and
  *where* (node id) an evaluation happens, plus an optional RNG branch
  for stochastic objectives.
* :class:`Problem` wraps any registered :class:`~repro.functions.base.Function`
  and evaluates it **as of** a context: ``problem.batch_at(points, ctx)``.
  Static functions auto-adapt via :class:`StaticProblem` (a no-op wrapper,
  so existing code paths and their RNG draw order are untouched).
* :class:`DriftingProblem` moves the optimum along a seeded random walk;
  :class:`ShiftingProblem` jumps it to a fresh seeded location on a
  schedule.  Both translate the coordinate frame — ``f(x - offset)`` —
  so the optimum *position* moves while the optimum *value* stays
  ``base.optimum_value`` (quality and error metrics remain comparable
  across epochs).

Time is divided into **epochs** of ``period`` clock units: the offset
is constant within an epoch and changes at epoch boundaries.  On cycle
engines the clock is the cycle index; on the event engines it is
simulated seconds.  Offsets are derived per epoch from a seeded stream
(independent of every engine stream), so the same scenario produces the
same landscape trajectory on all four engines.

>>> import numpy as np
>>> from repro.functions import get_function
>>> prob = DriftingProblem(get_function("sphere"), severity=0.1,
...                        period=5.0, rng_for_epoch=lambda e: np.random.default_rng(e))
>>> prob.epoch_at(12.0)
2
>>> bool(np.all(prob.offset_at(0) == 0.0))
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.functions.base import Function
from repro.utils.exceptions import ConfigurationError
from repro.utils.validate import PERIOD, SEVERITY, check, choice, count, optional

__all__ = [
    "EvalContext",
    "STATIC_CONTEXT",
    "Problem",
    "StaticProblem",
    "DriftingProblem",
    "ShiftingProblem",
    "DynamicsSpec",
    "DYNAMICS_KINDS",
    "as_problem",
    "build_problem",
    "ProblemClock",
    "ProblemBoundFunction",
]

#: Landscape dynamics the scenario layer accepts.
DYNAMICS_KINDS = ("none", "drift", "shift")

#: Fraction of the domain width the cumulative offset may reach.  Keeps
#: the translated optimum inside the search box for the centered
#: benchmark functions (e.g. Sphere's optimum at 0 in [-5.12, 5.12]
#: stays reachable up to |offset| = 0.45 * 10.24 = 4.6).
_OFFSET_LIMIT_FRACTION = 0.45


@dataclass(frozen=True)
class EvalContext:
    """When/where an objective evaluation happens.

    Attributes
    ----------
    time:
        Virtual clock: the cycle index on cycle-driven engines, the
        simulated second on event-driven engines.
    cycle:
        Engine cycle counter (informational; ``time`` drives epochs).
    node_id:
        Evaluating node, when the caller knows it (batched kernels
        evaluate many nodes at once and leave it ``None``).
    rng:
        Optional RNG branch for stochastic objectives; deterministic
        problems ignore it.
    """

    time: float = 0.0
    cycle: int = 0
    node_id: int | None = None
    rng: np.random.Generator | None = None


#: The context static call sites implicitly evaluate under.
STATIC_CONTEXT = EvalContext()


class Problem:
    """A time-aware objective wrapping a static :class:`Function`.

    The base class *is* the static adapter: ``batch_at`` ignores the
    context and delegates to ``base.batch``, and all domain metadata
    (bounds, dimension, optimum value) passes through unchanged.
    Dynamic subclasses override :meth:`epoch_at` / :meth:`offset_at`.
    """

    def __init__(self, base: Function):
        self.base = base

    # -- domain metadata (delegated) --------------------------------------

    @property
    def dimension(self) -> int:
        return self.base.dimension

    @property
    def lower(self) -> np.ndarray:
        return self.base.lower

    @property
    def upper(self) -> np.ndarray:
        return self.base.upper

    @property
    def optimum_value(self) -> float:
        return self.base.optimum_value

    @property
    def domain_width(self) -> np.ndarray:
        return self.base.domain_width

    def sample_uniform(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return self.base.sample_uniform(rng, count)

    def quality(self, value: float) -> float:
        return self.base.quality(value)

    # -- the time axis ----------------------------------------------------

    @property
    def is_dynamic(self) -> bool:
        """Whether the landscape ever changes (overridden by wrappers)."""
        return False

    def epoch_at(self, time: float) -> int:
        """Landscape epoch at virtual time ``time`` (static: always 0)."""
        return 0

    def offset_at(self, epoch: int) -> np.ndarray:
        """Coordinate-frame offset of ``epoch`` (static: zeros)."""
        return np.zeros(self.dimension)

    # -- evaluation -------------------------------------------------------

    def batch_at(self, points: np.ndarray, ctx: EvalContext) -> np.ndarray:
        """Evaluate ``(m, d)`` points as of ``ctx`` (static: plain batch)."""
        return self.base.batch(points)

    def call_at(self, point: np.ndarray, ctx: EvalContext) -> float:
        """Pointwise convenience over :meth:`batch_at`."""
        arr = np.asarray(point, dtype=float)
        return float(self.batch_at(arr[None, :], ctx)[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.base!r})"


class StaticProblem(Problem):
    """Explicit name for the auto-adapted static case (see :func:`as_problem`)."""


class _EpochOffsetProblem(Problem):
    """Shared machinery of the dynamic wrappers: per-epoch frame offsets.

    Offsets are memoized in epoch order from a per-epoch RNG factory,
    so the trajectory is a pure function of (seed stream, epoch) —
    independent of which engine asks, in which order, or how often.
    The cumulative offset is clamped coordinate-wise to
    ``+-_OFFSET_LIMIT_FRACTION * width`` so the moving optimum stays
    inside the search box.
    """

    def __init__(
        self,
        base: Function,
        severity: float,
        period: float,
        rng_for_epoch: Callable[[int], np.random.Generator],
    ):
        super().__init__(base)
        owner = type(self).__name__
        self.severity = float(SEVERITY.apply(severity, "severity", owner))
        self.period = float(PERIOD.apply(period, "period", owner))
        self._rng_for_epoch = rng_for_epoch
        self._width = self.base.domain_width
        self._limit = _OFFSET_LIMIT_FRACTION * self._width
        self._offsets: list[np.ndarray] = [np.zeros(self.dimension)]

    @property
    def is_dynamic(self) -> bool:
        return True

    def epoch_at(self, time: float) -> int:
        return max(0, int(time // self.period))

    def offset_at(self, epoch: int) -> np.ndarray:
        while len(self._offsets) <= epoch:
            e = len(self._offsets)
            nxt = self._next_offset(self._offsets[-1], e)
            self._offsets.append(np.clip(nxt, -self._limit, self._limit))
        return self._offsets[epoch]

    def _next_offset(self, prev: np.ndarray, epoch: int) -> np.ndarray:
        raise NotImplementedError

    def batch_at(self, points: np.ndarray, ctx: EvalContext) -> np.ndarray:
        offset = self.offset_at(self.epoch_at(ctx.time))
        return self.base.batch(points - offset)


class DriftingProblem(_EpochOffsetProblem):
    """Optimum drifts along a seeded Gaussian random walk.

    Each epoch adds an independent N(0, (severity * width)^2) step per
    coordinate to the cumulative offset — the classic "moving peaks"
    style of gradual landscape change.
    """

    def _next_offset(self, prev: np.ndarray, epoch: int) -> np.ndarray:
        step = self._rng_for_epoch(epoch).standard_normal(self.dimension)
        return prev + self.severity * self._width * step


class ShiftingProblem(_EpochOffsetProblem):
    """Optimum jumps to a fresh seeded location each epoch.

    Every epoch draws an independent uniform offset in
    ``+-severity * width`` — an abrupt scheduled shift, the severe end
    of the dynamic-optimization spectrum (no memory between epochs).
    """

    def _next_offset(self, prev: np.ndarray, epoch: int) -> np.ndarray:
        rng = self._rng_for_epoch(epoch)
        return rng.uniform(
            -self.severity * self._width, self.severity * self._width
        )


@dataclass(frozen=True)
class DynamicsSpec:
    """Declarative knobs of a dynamic landscape (a Scenario bundle).

    Attributes
    ----------
    kind:
        ``"none"`` (static), ``"drift"`` (seeded random walk), or
        ``"shift"`` (fresh jump per period).
    severity:
        Change magnitude as a fraction of the domain width per epoch.
    period:
        Clock units between changes — cycles on the cycle engines,
        simulated seconds on the event engines.
    seed:
        Optional explicit seed for the landscape trajectory; ``None``
        derives it from the scenario's seed tree (so repetitions see
        independent trajectories while all engines agree on each).
    """

    kind: str = "none"
    severity: float = 0.1
    period: float = 10.0
    seed: int | None = None

    RULES = {"kind": choice(*DYNAMICS_KINDS), "severity": SEVERITY,
             "period": PERIOD, "seed": optional(count(min=0))}

    def __post_init__(self) -> None:
        check(self, self.RULES)

    @property
    def enabled(self) -> bool:
        return self.kind != "none"


def as_problem(objective: "Function | Problem") -> Problem:
    """Adapt a plain :class:`Function` to the :class:`Problem` surface."""
    if isinstance(objective, Problem):
        return objective
    return StaticProblem(objective)


def build_problem(
    function: Function,
    dynamics: DynamicsSpec | None,
    tree=None,
) -> Problem:
    """Wire a :class:`Problem` from a function and its dynamics spec.

    ``tree`` is the repetition's :class:`~repro.utils.rng.SeedSequenceTree`;
    the landscape trajectory draws from the ``("problem", "dynamics",
    epoch)`` branch, disjoint from every engine stream — which is what
    keeps static scenarios bit-identical and dynamic trajectories
    engine-independent.  An explicit ``dynamics.seed`` pins the
    trajectory across repetitions instead.
    """
    if dynamics is None or not dynamics.enabled:
        return StaticProblem(function)
    if dynamics.seed is not None:
        pinned = int(dynamics.seed)

        def rng_for_epoch(epoch: int) -> np.random.Generator:
            return np.random.default_rng([pinned, epoch])

    elif tree is not None:

        def rng_for_epoch(epoch: int) -> np.random.Generator:
            return tree.rng("problem", "dynamics", epoch)

    else:
        raise ConfigurationError(
            "dynamics.seed: required when no seed tree is available"
        )
    cls = DriftingProblem if dynamics.kind == "drift" else ShiftingProblem
    return cls(
        function,
        severity=dynamics.severity,
        period=dynamics.period,
        rng_for_epoch=rng_for_epoch,
    )


@dataclass
class ProblemClock:
    """Mutable virtual-time holder shared by per-node function views.

    The reference engine constructs its per-node protocol objects once
    and cannot thread a context through every ``Function.batch`` call
    site; instead each node evaluates through a
    :class:`ProblemBoundFunction` reading this clock, and the engine
    advances it at cycle boundaries (or on scheduled shift events).
    """

    time: float = 0.0
    epoch: int = field(default=0)


class ProblemBoundFunction(Function):
    """A :class:`Function` view of a :class:`Problem` at a shared clock.

    Drop-in for every static call site (``batch``, ``__call__``,
    ``sample_uniform``, ``quality``): evaluation happens as of the
    clock's current virtual time.  This is how the per-node reference
    engine — and the event-driven deployment runtime — see dynamic
    landscapes without any protocol-layer changes.
    """

    def __init__(self, problem: Problem, clock: ProblemClock):
        super().__init__(
            problem.dimension,
            float(problem.lower[0]),
            float(problem.upper[0]),
        )
        # Keep the exact (possibly per-coordinate) box of the base.
        self.lower = problem.lower.copy()
        self.upper = problem.upper.copy()
        self.NAME = problem.base.NAME
        self.problem = problem
        self.clock = clock

    def batch(self, points: np.ndarray) -> np.ndarray:
        return self.problem.batch_at(
            points, EvalContext(time=self.clock.time)
        )

    @property
    def optimum_value(self) -> float:
        return self.problem.optimum_value

    def quality(self, value: float) -> float:
        return self.problem.quality(value)
