"""Observers: periodic measurement and stop-condition hooks.

PeerSim separates *protocols* (the system under test) from *controls*
(code with global visibility that measures or perturbs it).  Observers
are our controls: they run at the end of each cycle with full access
to the engine and may record measurements or request a stop.  Keeping
measurement out of the protocols keeps the protocols honest — they
never act on information a real node could not have.

Observers are duck-typed over the engine: anything exposing ``cycle``
and ``stop(reason)`` can drive them, so the same hooks run unchanged
on :class:`~repro.simulator.engine.CycleDrivenEngine` and on the
vectorized :class:`~repro.core.fastpath.FastEngine` (which has no
per-node object graph to observe, only SoA state).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import CycleDrivenEngine

__all__ = ["Observer", "FunctionObserver", "StopCondition"]


class Observer(abc.ABC):
    """Base observer protocol."""

    @abc.abstractmethod
    def observe(self, engine: "CycleDrivenEngine") -> None:
        """Inspect the engine at the end of a cycle."""


class FunctionObserver(Observer):
    """Adapter turning a plain callable into an observer.

    >>> seen = []
    >>> obs = FunctionObserver(lambda eng: seen.append(eng.cycle))
    """

    def __init__(self, fn: Callable[["CycleDrivenEngine"], None]):
        self._fn = fn

    def observe(self, engine: "CycleDrivenEngine") -> None:
        self._fn(engine)


class StopCondition(Observer):
    """Stop the engine when a predicate over it becomes true.

    Parameters
    ----------
    predicate:
        ``engine -> bool``; truthy means stop.
    reason:
        Recorded as the engine's stop reason (experiments distinguish
        "threshold reached" from "budget exhausted" through this).
    """

    def __init__(self, predicate: Callable[["CycleDrivenEngine"], bool],
                 reason: str = "stop condition met"):
        self.predicate = predicate
        self.reason = reason
        self.triggered_at: int | None = None

    def observe(self, engine: "CycleDrivenEngine") -> None:
        if self.predicate(engine):
            self.triggered_at = engine.cycle
            engine.stop(self.reason)
