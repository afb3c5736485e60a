"""The unified execution policy: one value for every *how*-to-run knob.

A :class:`Scenario` says *what* to simulate; an :class:`ExecutionPolicy`
says *how* to execute it — process parallelism, spool-backed
distribution, overlay sharding, and the liveness thresholds of the
distributed service.  The knobs used to be six loose keyword arguments
threaded through ``Session.sweep`` → ``run_sweep_jobs`` →
``run_worker``; now every entry point
(:meth:`Session.run <repro.scenario.session.Session.run>`,
:meth:`Session.sweep <repro.scenario.session.Session.sweep>`,
:func:`run_sweep_jobs <repro.distributed.service.run_sweep_jobs>`,
and the ``repro.experiments`` / ``repro.distributed`` CLIs) accepts
exactly one frozen policy value — the loose kwargs are gone.

>>> ExecutionPolicy(workers=4).workers
4
>>> ExecutionPolicy.from_dict({"shards": 2}).shards
2
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping

from repro.utils.validate import check, count, load, optional, real, require, text

__all__ = ["ExecutionPolicy", "EXECUTION_FIELDS", "process_context"]

#: Field names of :class:`ExecutionPolicy` — the execution knobs that
#: must *not* appear inside a :class:`~repro.scenario.spec.Scenario`
#: payload (the scenario layer uses this set to produce a pointed
#: error message instead of a generic unknown-field rejection).
EXECUTION_FIELDS = (
    "workers",
    "spool",
    "shards",
    "stale_after",
    "heartbeat_interval",
    "job_timeout",
)


def process_context():
    """Start method of every worker process: ``fork`` on Linux, else the default.

    ``fork`` starts in milliseconds (``spawn`` re-imports ``repro`` in
    every worker) and needs no importable ``__main__``, so a script fed
    on stdin starts its pools too.  Python >= 3.12's "use of fork() may
    lead to deadlocks" notice (NumPy's idle BLAS thread) stays visible:
    OpenBLAS registers ``atfork`` handlers, and no caller starts a
    thread of its own before forking.
    """
    import multiprocessing
    import sys

    return multiprocessing.get_context("fork" if sys.platform == "linux" else None)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a scenario (or sweep) executes; orthogonal to *what* runs.

    Attributes
    ----------
    workers:
        Process-parallel execution: repetitions for
        :meth:`Session.run`, (point, repetition) jobs for sweeps.
        Every scenario runs this way (a scenario is a plain value, so
        it crosses a process boundary as a pickle or a job file), and
        results are identical to the sequential run on every path.
    spool:
        Spool directory.  For sweeps this routes jobs through the
        file-backed :class:`~repro.distributed.spool.JobQueue` (remote
        workers can join; interrupted sweeps resume).  For sharded
        runs (``shards > 1``) it holds the cross-shard exchange: the
        shard processes' windowed messages persist as files instead of
        crossing pipes, which is what makes a killed shard worker
        recoverable by deterministic replay.
    shards:
        Partition one overlay's node ids over this many shard
        engines (``Session.run`` only; see :mod:`repro.sharding`).
        ``1`` = the ordinary single-engine fast path.
    stale_after:
        Spool sweeps: reclaim claims whose last heartbeat is older
        than this many seconds (``None`` recovers only provably dead
        local workers).
    heartbeat_interval:
        Spool sweeps: seconds between worker claim-heartbeat stamps.
    job_timeout:
        Spool sweeps: per-job wall-clock budget enforced between
        repetitions.
    """

    workers: int = 1
    spool: str | None = None
    shards: int = 1
    stale_after: float | None = None
    heartbeat_interval: float = 15.0
    job_timeout: float | None = None

    # A zero job_timeout is legal: an immediately-expiring budget (the
    # chaos suite uses it to force the timeout path deterministically).
    RULES = {"workers": count(), "spool": optional(text), "shards": count(),
             "stale_after": optional(real(above=0)),
             "heartbeat_interval": real(above=0),
             "job_timeout": optional(real(min=0))}

    def __post_init__(self) -> None:
        check(self, self.RULES)
        require(self.workers == 1 or self.shards == 1, "workers",
                "shards > 1 already runs one process per shard — pick "
                "repetition parallelism (workers) or overlay sharding "
                "(shards)", "ExecutionPolicy")

    # -- JSON round-trip ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict (see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPolicy":
        """Rebuild a policy from :meth:`to_dict` output; validates keys."""
        return load(cls, data)

    def with_(self, **changes: Any) -> "ExecutionPolicy":
        """Return a modified copy."""
        return replace(self, **changes)
