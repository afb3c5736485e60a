"""Simulation engines: cycle-driven and event-driven execution.

Cycle-driven model (paper's model)
----------------------------------

PeerSim's cycle-driven mode — used for every experiment in the paper —
advances logical time in *cycles*.  Within a cycle the engine:

1. runs the churn process (if any),
2. visits every live node **in a freshly shuffled order** and invokes
   each of its cycle protocols (attachment order),
3. runs observers, which may request termination.

Shuffling per cycle removes systematic advantage from node creation
order, matching PeerSim's ``shuffle`` option that the NEWSCAST
literature assumes.

Event-driven model
------------------

A classic discrete-event loop: a heap of ``(time, seq, action)``
entries; actions are arbitrary callables (message deliveries, timer
callbacks).  ``seq`` breaks ties FIFO so simultaneous events keep
submission order — making runs deterministic given the seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.simulator.network import Network
from repro.simulator.protocol import CycleProtocol
from repro.simulator.transport import ReliableTransport, Transport
from repro.utils.exceptions import SimulationError

__all__ = ["EngineBase", "CycleDrivenEngine", "EventDrivenEngine", "SimulationEvent"]


class EngineBase:
    """State shared by both engines: network, transport, clock, trace.

    Attributes
    ----------
    network:
        The node population.
    transport:
        Message carrier used by protocols that communicate.
    now:
        Current simulation time.  Cycle engines use the cycle index;
        event engines use continuous event time.
    """

    def __init__(
        self,
        network: Network,
        transport: Transport | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.network = network
        self.transport = transport if transport is not None else ReliableTransport()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.now: float = 0.0
        self.trace = None  # set by TraceRecorder.attach()
        self._stopped = False
        self._stop_reason: str | None = None

    def stop(self, reason: str = "requested") -> None:
        """Request termination; honored at the next safe point."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stopped(self) -> bool:
        """Whether a stop has been requested."""
        return self._stopped

    @property
    def stop_reason(self) -> str | None:
        """Why the simulation stopped, if it did."""
        return self._stop_reason

    def schedule(self, time: float, action: Callable[["EngineBase"], None]) -> None:
        """Schedule a deferred action (event-driven engines only)."""
        raise SimulationError(
            f"{type(self).__name__} does not support scheduled events"
        )


class CycleDrivenEngine(EngineBase):
    """Lock-step cycle execution over the live population.

    Parameters
    ----------
    network, transport:
        See :class:`EngineBase`.  The default reliable transport is
        correct for cycle-driven protocols.
    rng:
        Stream used for per-cycle node shuffling (and passed to churn).
    churn:
        Optional churn process run at the start of each cycle.
    observers:
        Measurement hooks run at the end of each cycle, in order.
    """

    def __init__(
        self,
        network: Network,
        transport: Transport | None = None,
        rng: np.random.Generator | None = None,
        churn=None,
        observers: Iterable = (),
    ):
        super().__init__(network, transport, rng)
        self.churn = churn
        self.observers = list(observers)
        self.cycle: int = 0

    def add_observer(self, observer) -> None:
        """Append an observer (runs after already-registered ones)."""
        self.observers.append(observer)

    def run(self, cycles: int) -> int:
        """Execute up to ``cycles`` cycles; returns cycles *completed*.

        Stops early if an observer / churn / protocol calls
        :meth:`EngineBase.stop` or if the live population empties.
        A cycle aborted mid-way by a protocol's stop request does not
        count as completed (observers also do not run for it).
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        executed = 0
        for _ in range(cycles):
            if self._stopped:
                break
            if self.network.live_count == 0:
                self.stop("population extinct")
                break
            if self._run_one_cycle():
                executed += 1
        return executed

    def _run_one_cycle(self) -> bool:
        """Run one cycle; returns False if aborted before completion."""
        if self.churn is not None:
            self.churn.step(self)
        ids = self.network.live_ids()
        # Fresh shuffle each cycle (PeerSim's shuffle=true).
        order = self.rng.permutation(len(ids))
        for idx in order:
            nid = ids[int(idx)]
            if not self.network.is_alive(nid):
                continue  # crashed earlier this cycle
            node = self.network.node(nid)
            for name in node.protocol_names():
                proto = node.protocol(name)
                if isinstance(proto, CycleProtocol):
                    proto.next_cycle(node, self)
                if self._stopped:
                    return False
        self.cycle += 1
        self.now = float(self.cycle)
        for obs in self.observers:
            obs.observe(self)
            if self._stopped:
                break
        return True


@dataclass(order=True)
class SimulationEvent:
    """Heap entry of the event-driven engine (time, then FIFO)."""

    time: float
    seq: int
    action: Callable[[EngineBase], None] = field(compare=False)


class EventDrivenEngine(EngineBase):
    """Discrete-event simulation with a time-ordered action queue."""

    def __init__(
        self,
        network: Network,
        transport: Transport | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(network, transport, rng)
        self._queue: list[SimulationEvent] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def schedule(self, time: float, action: Callable[[EngineBase], None]) -> None:
        """Enqueue ``action`` to run at simulation time ``time``.

        Scheduling strictly in the past is an error; scheduling at the
        current time is allowed (runs after already-queued events of
        the same timestamp).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} < now {self.now}"
            )
        heapq.heappush(self._queue, SimulationEvent(time, next(self._seq), action))

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Process events until the queue drains, ``until`` passes, or
        ``max_events`` have run.  Returns events processed this call."""
        processed = 0
        while self._queue and not self._stopped:
            if max_events is not None and processed >= max_events:
                break
            if until is not None and self._queue[0].time > until:
                self.now = float(until)
                break
            ev = heapq.heappop(self._queue)
            self.now = ev.time
            ev.action(self)
            processed += 1
            self.events_processed += 1
        return processed

    @property
    def pending_events(self) -> int:
        """Number of queued, not-yet-run events."""
        return len(self._queue)
