"""The worker loop: claim → execute → publish, until the spool drains.

A worker is stateless — everything it needs is inside the claimed
job's scenario dict — so adding capacity to a running sweep is just
starting more processes (on any host that mounts the spool), and
losing one costs nothing but a requeue.

The loop is built to be killed.  Every failure is sorted into one of
three buckets and handled without crashing:

* **Transient spool IO** (``OSError`` on claim/complete/release — an
  NFS blip, a chaos-injected fault): retried in place with capped
  exponential backoff plus jitter (:func:`~repro.distributed.spool.with_retries`).
* **Permanent job failures** (scenario validation, deterministic
  exceptions): dead-lettered immediately — re-running a deterministic
  failure ``max_retries`` times would only waste the retry budget.
* **Everything else** (including the optional per-job wall-clock
  timeout): released back to the queue with the attempt counter
  bumped, retried by whoever claims it next.

While executing, the worker stamps its claim file on a fixed
heartbeat interval — between repetitions via the ``execute_job`` hook
and from one fallback timer thread per worker
(:class:`~repro.distributed.spool.ClaimHeartbeat`, started on the
first claim and handed each later one) — so the coordinator's
``stale_after`` can sit at a few heartbeat periods regardless of job
length.  The status sidecar is written at start, at each claim (that
job, plus the jobs done so far) and once on going idle or exiting;
a write whose payload equals the last one is skipped.
``SIGTERM``/``SIGINT`` trigger a graceful shutdown: the current claim
is released *without* consuming a retry, then the loop exits.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from pathlib import Path
from typing import Callable

from repro.distributed.jobs import execute_job
from repro.distributed.spool import (
    ClaimHeartbeat,
    JobQueue,
    with_retries,
    worker_identity,
)
from repro.utils.exceptions import ConfigurationError

__all__ = ["run_worker", "JobTimeoutError", "classify_failure"]

#: Default seconds between claim-file heartbeat stamps.
DEFAULT_HEARTBEAT = 15.0

#: Exception types whose job failures are deterministic: the same job
#: re-run on any worker fails identically, so retrying wastes the
#: budget and the job is dead-lettered on the first occurrence.
#: (``ConfigurationError`` already subclasses ``ValueError``; listed
#: for documentation.)  Everything else — ``OSError``, ``MemoryError``,
#: engine-state errors that may depend on host condition — keeps the
#: retry path.
_PERMANENT_FAILURES = (
    ConfigurationError,
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    AssertionError,
    ZeroDivisionError,
)


class JobTimeoutError(Exception):
    """A job exceeded its wall-clock budget (checked between repetitions)."""


class _ShutdownRequested(Exception):
    """Internal: a termination signal arrived mid-job."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum


def classify_failure(exc: BaseException) -> str:
    """``"permanent"`` for deterministic failures, ``"transient"`` otherwise."""
    return (
        "permanent" if isinstance(exc, _PERMANENT_FAILURES) else "transient"
    )


def run_worker(
    spool: str | Path | JobQueue,
    poll_interval: float = 0.2,
    idle_timeout: float | None = None,
    max_jobs: int | None = None,
    log: Callable[[str], None] | None = None,
    policy=None,
) -> int:
    """Execute spool jobs until there is no more work; returns jobs done.

    ``policy`` (an :class:`~repro.scenario.policy.ExecutionPolicy`)
    supplies the liveness knobs in one value — its
    ``heartbeat_interval`` (seconds between claim-file heartbeat
    stamps while executing; stamps happen between repetitions *and*
    from the worker's one fallback timer thread, so the claim never
    goes silent longer than this while its worker lives, which lets
    ``stale_after`` drop to a few heartbeat periods) and its
    ``job_timeout`` (optional wall-clock budget per job, checked
    cooperatively between repetitions: a job past its deadline is
    released with a ``"timeout"`` error, counting as an attempt and
    dead-lettered past ``max_retries``; a single repetition is never
    interrupted mid-flight).

    Parameters
    ----------
    spool:
        The spool directory (or an already-open :class:`JobQueue`).
    poll_interval:
        Seconds between queue polls while waiting for claimable work.
        The actual sleep is jittered in ``[0.5, 1.5) * poll_interval``
        so a fleet of workers sharing one spool does not scandir in
        lockstep (a thundering herd on NFS-mounted spools).
    idle_timeout:
        ``None`` (default) drains: the worker exits as soon as nothing
        is pending.  A number keeps the worker polling that many
        seconds past the last claim — the multi-host mode, where work
        may still be submitted or requeued after a lull.
    max_jobs:
        Optional cap on jobs to execute (testing/chaos knob).

    Failures are sorted into the module docstring's three buckets.
    While idle, the worker periodically probes for claims abandoned by
    *dead* local processes (``requeue_abandoned``), so a killed worker
    on this host never strands a job as long as any sibling keeps
    polling.

    ``SIGTERM``/``SIGINT`` (installed only when running in the main
    thread) shut the worker down gracefully: the current claim is
    released *without* consuming a retry, the status sidecar is
    finalized, and the call returns normally.
    """
    from repro.scenario.policy import ExecutionPolicy

    if policy is None:
        policy = ExecutionPolicy(heartbeat_interval=DEFAULT_HEARTBEAT)
    if not isinstance(policy, ExecutionPolicy):
        raise TypeError(
            "run_worker takes policy=ExecutionPolicy(...); the loose "
            "heartbeat_interval/job_timeout kwargs were removed"
        )
    job_timeout = policy.job_timeout
    queue = spool if isinstance(spool, JobQueue) else JobQueue(spool)
    log = log or (lambda message: None)
    identity = worker_identity()
    rng = random.Random()  # per-process jitter stream (OS-seeded)
    executed = retries = 0
    stop: dict[str, int] = {}
    heartbeat = ClaimHeartbeat(queue, policy.heartbeat_interval)
    published: dict = {}

    def handle_signal(signum, frame):  # pragma: no cover - timing dependent
        stop["signum"] = signum

    installed: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                installed[signum] = signal.signal(signum, handle_signal)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass

    def publish_status(current_job: str | None) -> None:
        status = dict(pid=os.getpid(), jobs_done=executed, retries=retries,
                      current_job=current_job, shutdown="signum" in stop)
        if status != published:
            queue.record_worker_status(identity, **status)
            published.update(status)

    def spool_op(operation: Callable[[], object]):
        """Transient-IO shield around every queue touch."""

        def note_retry(attempt: int, exc: BaseException) -> None:
            log(f"spool IO retry {attempt + 1}: {type(exc).__name__}: {exc}")

        return with_retries(operation, rng=rng, on_retry=note_retry)

    publish_status(None)
    last_work = time.monotonic()
    next_recovery = 0.0
    try:
        while max_jobs is None or executed < max_jobs:
            if "signum" in stop:
                break
            claim = spool_op(queue.claim)
            if claim is None:
                publish_status(None)
                now = time.monotonic()
                if now >= next_recovery:
                    # Safe by construction: only reclaims jobs whose
                    # recorded owner provably no longer exists.
                    if spool_op(queue.requeue_abandoned):
                        continue
                    next_recovery = now + max(5.0, poll_interval)
                idle = now - last_work
                if idle_timeout is None:
                    if not queue.pending_ids():
                        # Final sweep before draining out: a sibling
                        # killed mid-claim must not strand its job
                        # just because we were between recovery ticks.
                        if spool_op(queue.requeue_abandoned):
                            continue
                        break
                elif idle >= idle_timeout:
                    break
                time.sleep(poll_interval * (0.5 + rng.random()))
                continue
            job = claim.job
            publish_status(job.job_id)
            log(f"claimed {job.job_id} (attempt {claim.attempts + 1})")
            t0 = time.perf_counter()
            deadline = None if job_timeout is None else t0 + job_timeout

            def on_repetition(index: int, claim=claim, deadline=deadline):
                if "signum" in stop:
                    raise _ShutdownRequested(stop["signum"])
                if deadline is not None and time.perf_counter() > deadline:
                    raise JobTimeoutError(
                        f"exceeded {job_timeout}s wall clock before "
                        f"repetition {index}"
                    )
                queue.heartbeat(claim)

            try:
                with heartbeat.holding(claim):
                    records = execute_job(job, on_repetition=on_repetition)
            except _ShutdownRequested as exc:
                spool_op(
                    lambda: queue.release(
                        claim,
                        error=f"worker shutdown (signal {exc.signum})",
                        count_attempt=False,
                    )
                )
                log(f"released {job.job_id} (shutdown signal)")
                break
            except Exception as exc:  # noqa: BLE001 - job errors must not kill the loop
                # A timeout is transient: it counts an attempt, as any retry.
                kind = classify_failure(exc)
                retries += kind == "transient"
                error = (f"timeout: {exc}" if isinstance(exc, JobTimeoutError)
                         else f"{type(exc).__name__}: {exc}")
                spool_op(lambda: queue.release(
                    claim, error=error, permanent=kind == "permanent"
                ))
                log(f"failed  {job.job_id} ({kind}): {error}")
            else:
                spool_op(
                    lambda: queue.complete(
                        claim, records, elapsed_seconds=time.perf_counter() - t0
                    )
                )
                executed += 1
                log(f"done    {job.job_id} ({len(records)} repetition(s))")
            last_work = time.monotonic()
    finally:
        heartbeat.close()
        for signum, previous in installed.items():
            signal.signal(signum, previous)
        publish_status(None)
    return executed
