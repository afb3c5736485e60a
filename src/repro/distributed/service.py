"""The sweep coordinator: decompose, execute anywhere, reassemble.

This is the layer the :class:`~repro.scenario.session.Session` facade
and the experiment CLI call into.  It owns the *shape* of a
distributed sweep — the work-pool decomposition of the whole sweep
into per-repetition :class:`~repro.distributed.jobs.SweepJob`\\ s, so
repetitions of different points fill the pool instead of idling — and
guarantees that however the jobs were scheduled (in-process pool,
spool directory shared across hosts, any completion order), the
collected output is *identical* to the sequential
``Session.sweep`` run: same :class:`~repro.scenario.result.Result`
per point, same records, same deterministic point order.  That holds
because every repetition draws its randomness from its own seed-tree
branch ``("rep", i)``, independent of where or when it runs.

Two execution modes:

* ``spool=None`` — an in-process worker pool streams job results back
  as they complete.
* ``spool=DIR`` — jobs go through the file-backed
  :class:`~repro.distributed.spool.JobQueue`; local worker processes
  are started for you, and any number of additional
  ``python -m repro.distributed worker --spool DIR`` processes on
  hosts sharing the directory join the same sweep.  Results already
  in the spool are not re-run, so an interrupted sweep resumes where
  it stopped.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.distributed.jobs import SweepJob, execute_job, jobs_for_sweep
from repro.distributed.spool import JobQueue
from repro.distributed.worker import run_worker
from repro.scenario.policy import ExecutionPolicy, process_context
from repro.scenario.result import Result, RunRecord
from repro.scenario.spec import Scenario
from repro.utils.exceptions import SimulationError

__all__ = ["run_sweep_jobs", "collect_results", "collect_from_spool"]

#: Progress callback shape: (point_index, scenario, completed Result).
PointProgress = Callable[[int, Scenario, Result], None]


def _star_execute(job: SweepJob) -> tuple[str, list[RunRecord], float]:
    """Pool-side job runner (top level: must be picklable)."""
    t0 = time.perf_counter()
    records = execute_job(job)
    return job.job_id, records, time.perf_counter() - t0


def collect_results(
    scenarios: Sequence[Scenario],
    jobs: Sequence[SweepJob],
    records_by_job: Mapping[str, list[RunRecord]],
    elapsed_by_job: Mapping[str, float] | None = None,
) -> list[Result]:
    """Reassemble per-point :class:`Result`\\ s in sweep order.

    Completion order is irrelevant: points come back in ``scenarios``
    order and each point's records in repetition order, exactly like
    the sequential run.  Missing jobs fail loudly.
    """
    elapsed_by_job = elapsed_by_job or {}
    missing = [job.job_id for job in jobs if job.job_id not in records_by_job]
    if missing:
        raise SimulationError(
            f"sweep incomplete: no results for job(s) {', '.join(missing)}"
        )
    per_point: dict[int, list[tuple[int, RunRecord]]] = {}
    per_point_elapsed: dict[int, float] = {}
    for job in jobs:
        records = records_by_job[job.job_id]
        if len(records) != len(job.repetitions):
            raise SimulationError(
                f"job {job.job_id}: {len(records)} record(s) for "
                f"{len(job.repetitions)} repetition(s)"
            )
        point = per_point.setdefault(job.point_index, [])
        point.extend(zip(job.repetitions, records))
        per_point_elapsed[job.point_index] = per_point_elapsed.get(
            job.point_index, 0.0
        ) + float(elapsed_by_job.get(job.job_id, 0.0))
    results = []
    for index, scenario in enumerate(scenarios):
        pairs = sorted(per_point.get(index, []), key=lambda p: p[0])
        if [rep for rep, _ in pairs] != list(range(scenario.repetitions)):
            raise SimulationError(
                f"sweep point {index}: repetitions "
                f"{[rep for rep, _ in pairs]} do not cover "
                f"0..{scenario.repetitions - 1}"
            )
        results.append(
            Result(
                scenario=scenario,
                records=[record for _, record in pairs],
                elapsed_seconds=per_point_elapsed.get(index, 0.0),
            )
        )
    return results


def _raise_if_dead_lettered(
    queue: JobQueue, jobs: Sequence[SweepJob], completed: set[str]
) -> None:
    """Fail loudly on dead letters — unless a late ``complete`` won."""
    failed = set(queue.failed_ids()) - completed
    dead = [job.job_id for job in jobs if job.job_id in failed]
    if dead:
        errors = "; ".join(
            f"{job_id} ({queue.load_failed(job_id).get('error', 'unknown')})"
            for job_id in dead
        )
        raise SimulationError(f"sweep job(s) dead-lettered: {errors}")


def collect_from_spool(
    spool: str | Path | JobQueue,
    scenarios: Sequence[Scenario],
    reps_per_job: int = 1,
) -> list[Result]:
    """Assemble a spool sweep's output (the ``collect`` CLI step).

    Recomputes the deterministic job list from ``scenarios`` and reads
    each job's records back from the spool; raises naming the missing
    or dead-lettered jobs if the sweep has not finished.
    """
    queue = spool if isinstance(spool, JobQueue) else JobQueue(spool)
    jobs = jobs_for_sweep(scenarios, reps_per_job=reps_per_job)
    done = set(queue.result_ids())
    records_by_job: dict[str, list[RunRecord]] = {}
    elapsed_by_job: dict[str, float] = {}
    for job in jobs:
        if job.job_id in done:
            payload = queue.load_result(job.job_id)
            records_by_job[job.job_id] = [
                RunRecord.from_dict(record) for record in payload["records"]
            ]
            elapsed_by_job[job.job_id] = float(
                payload.get("elapsed_seconds", 0.0)
            )
    _raise_if_dead_lettered(queue, jobs, set(records_by_job))
    return collect_results(scenarios, jobs, records_by_job, elapsed_by_job)


def _progress_sweeper(
    scenarios: Sequence[Scenario],
    jobs: Sequence[SweepJob],
    progress: PointProgress | None,
):
    """Stream per-point completions as jobs finish, any order.

    Returns an ``offer(job_id, records, elapsed)`` sink: feed each
    finished job to it; when the last job of a point lands, the
    point's :class:`Result` is built, ``progress`` fires, and the
    point's buffer is released.  Points may complete out of sweep
    order — the final collected list is ordered regardless.  With no
    ``progress`` callback the sink is a no-op (nothing is buffered).
    """
    if progress is None:
        return lambda job_id, records, elapsed: None
    outstanding = {
        index: sum(1 for j in jobs if j.point_index == index)
        for index in range(len(scenarios))
    }
    by_point: dict[int, dict[str, tuple[SweepJob, list[RunRecord], float]]] = {}
    emitted: set[int] = set()
    job_by_id = {job.job_id: job for job in jobs}

    def offer(job_id: str, records: list[RunRecord], elapsed: float) -> None:
        job = job_by_id[job_id]
        if job.point_index in emitted:
            return
        point = by_point.setdefault(job.point_index, {})
        if job_id in point:
            return
        point[job_id] = (job, records, elapsed)
        if len(point) == outstanding[job.point_index]:
            pairs = sorted(
                (
                    (rep, record)
                    for j, recs, _ in point.values()
                    for rep, record in zip(j.repetitions, recs)
                ),
                key=lambda p: p[0],
            )
            progress(
                job.point_index,
                scenarios[job.point_index],
                Result(
                    scenario=scenarios[job.point_index],
                    records=[record for _, record in pairs],
                    elapsed_seconds=sum(e for _, _, e in point.values()),
                ),
            )
            emitted.add(job.point_index)
            del by_point[job.point_index]  # emitted: release the buffer

    return offer


def _run_jobs_pool(
    jobs: Sequence[SweepJob],
    workers: int,
    offer: Callable[[str, list[RunRecord], float], None],
) -> tuple[dict[str, list[RunRecord]], dict[str, float]]:
    """Execute jobs on an in-process worker pool, streaming completions."""
    records_by_job: dict[str, list[RunRecord]] = {}
    elapsed_by_job: dict[str, float] = {}
    with process_context().Pool(processes=min(workers, len(jobs))) as pool:
        for job_id, records, elapsed in pool.imap_unordered(
            _star_execute, jobs
        ):
            records_by_job[job_id] = records
            elapsed_by_job[job_id] = elapsed
            offer(job_id, records, elapsed)
    return records_by_job, elapsed_by_job


def _run_jobs_spool(
    jobs: Sequence[SweepJob],
    workers: int,
    spool: str | Path,
    offer: Callable[[str, list[RunRecord], float], None],
    poll_interval: float,
    stale_after: float | None,
    heartbeat_interval: float,
    job_timeout: float | None,
) -> tuple[JobQueue, dict[str, list[RunRecord]], dict[str, float]]:
    """Execute jobs through a spool queue plus local worker processes.

    External workers pointed at the same spool share the load; local
    workers drain and exit.  Recovery never steals live work: claims
    owned by a worker process that *provably died* are requeued
    (owner-identity probe, scoped to this sweep's jobs) and finished
    inline.  Heartbeat-age reclaim (claims on unreachable hosts, or
    local claims whose recorded pid was recycled) runs when
    ``stale_after`` is set — workers stamp their claims every
    ``heartbeat_interval`` seconds while executing, so a threshold of
    a few heartbeat periods reclaims only claims whose worker stopped
    stamping, regardless of job length.  With ``stale_after=None`` a
    claim lost on a *remote* host parks the coordinator (visibly
    waiting) until ``python -m repro.distributed requeue`` clears it.
    The call returns with the sweep complete or raises naming the
    dead-lettered jobs.
    """
    queue = JobQueue(spool)
    for job in jobs:
        queue.submit(job)
    expected = {job.job_id for job in jobs}
    ctx = process_context()
    worker_policy = ExecutionPolicy(
        heartbeat_interval=heartbeat_interval, job_timeout=job_timeout
    )
    procs = [
        ctx.Process(
            target=run_worker,
            args=(str(spool),),
            kwargs={"policy": worker_policy},
            daemon=True,
        )
        for _ in range(workers)
    ]
    for proc in procs:
        proc.start()
    from repro.distributed.spool import worker_identity

    local_owners = {worker_identity(proc.pid) for proc in procs}
    records_by_job: dict[str, list[RunRecord]] = {}
    elapsed_by_job: dict[str, float] = {}
    last_recovery = time.monotonic()
    # Directory scans hit every file in the spool (possibly over NFS);
    # crash recovery needs nowhere near the result-poll cadence.
    recovery_every = (
        5.0 if stale_after is None else max(stale_after / 4.0, 1.0)
    )

    def drain_new_results() -> set[str]:
        done = expected & set(queue.result_ids())
        for job_id in sorted(done - set(records_by_job)):
            payload = queue.load_result(job_id)
            records = [RunRecord.from_dict(r) for r in payload["records"]]
            elapsed = float(payload.get("elapsed_seconds", 0.0))
            records_by_job[job_id] = records
            elapsed_by_job[job_id] = elapsed
            offer(job_id, records, elapsed)
        return done

    try:
        while True:
            done = drain_new_results()
            failed = (expected & set(queue.failed_ids())) - done
            if done | failed == expected:
                break
            if time.monotonic() - last_recovery >= recovery_every:
                queue.requeue_abandoned(
                    owners=local_owners, job_ids=expected
                )
                if stale_after is not None:
                    queue.requeue_stale(stale_after, job_ids=expected)
                last_recovery = time.monotonic()
            if any(proc.is_alive() for proc in procs):
                time.sleep(poll_interval)
                continue
            # All local workers exited.  Recover anything a *dead*
            # worker (local or explicitly ours) still claims, and
            # finish requeued work inline.
            queue.requeue_abandoned(owners=local_owners, job_ids=expected)
            if queue.pending_ids():
                run_worker(queue, policy=worker_policy)
                continue
            if expected & set(queue.claimed_ids()):
                # External workers still own jobs: wait for them.
                # (With stale_after set, the periodic requeue above
                # reclaims truly lost remote claims; without it, an
                # operator `requeue` unblocks us — we re-check every
                # poll.)
                time.sleep(poll_interval)
                continue
            drain_new_results()
            break  # nothing pending or in flight: only dead letters remain
    finally:
        for proc in procs:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
    return queue, records_by_job, elapsed_by_job


def run_sweep_jobs(
    scenarios: Sequence[Scenario],
    progress: PointProgress | None = None,
    reps_per_job: int = 1,
    poll_interval: float = 0.25,
    policy: ExecutionPolicy | None = None,
) -> list[Result]:
    """Execute a sweep through the job machinery; Results in sweep order.

    The output is pinned equal to the sequential per-point run —
    same records, same order — for any ``workers``/``spool``
    combination (see module docstring).  ``progress`` fires once per
    *point* as its last repetition lands, possibly out of sweep order.

    ``policy`` is the unified execution surface
    (:class:`~repro.scenario.policy.ExecutionPolicy`): ``workers``
    sizes the in-process pool, ``spool`` routes jobs through the
    file-backed queue, and ``stale_after`` / ``heartbeat_interval`` /
    ``job_timeout`` are the spool liveness knobs.

    ``stale_after`` (spool mode) opts into heartbeat-age reclaim:
    claims of this sweep whose last heartbeat stamp is older than
    that many seconds are requeued.  Workers stamp their claims every
    ``heartbeat_interval`` seconds while executing (between
    repetitions plus a fallback timer thread), so a ``stale_after``
    of a few heartbeat periods is safe regardless of job length —
    only a worker that stopped stamping ever looks stale.  ``None``
    (default) recovers only provably dead workers (owner probe),
    which can never steal live work.  ``job_timeout`` gives each job
    a wall-clock budget, enforced by the workers between repetitions
    (released with a ``"timeout"`` error past it).  Both knobs apply
    to spool mode; the in-process pool ignores them.
    """
    if policy is None:
        policy = ExecutionPolicy()
    if not isinstance(policy, ExecutionPolicy):
        raise TypeError(
            "run_sweep_jobs takes policy=ExecutionPolicy(...); the loose "
            "execution kwargs (workers=..., spool=..., ...) were removed"
        )
    workers = policy.workers
    spool = policy.spool
    stale_after = policy.stale_after
    heartbeat_interval = policy.heartbeat_interval
    job_timeout = policy.job_timeout
    scenarios = list(scenarios)
    if not scenarios:
        return []
    jobs = jobs_for_sweep(scenarios, reps_per_job=reps_per_job)
    offer = _progress_sweeper(scenarios, jobs, progress)

    if spool is not None:
        queue, records_by_job, elapsed_by_job = _run_jobs_spool(
            jobs, workers, spool, offer, poll_interval, stale_after,
            heartbeat_interval, job_timeout,
        )
        _raise_if_dead_lettered(queue, jobs, set(records_by_job))
        return collect_results(
            scenarios, jobs, records_by_job, elapsed_by_job
        )

    if workers == 1:
        records_by_job: dict[str, list[RunRecord]] = {}
        elapsed_by_job: dict[str, float] = {}
        for job in jobs:
            job_id, records, elapsed = _star_execute(job)
            records_by_job[job_id] = records
            elapsed_by_job[job_id] = elapsed
            offer(job_id, records, elapsed)
    else:
        records_by_job, elapsed_by_job = _run_jobs_pool(jobs, workers, offer)
    return collect_results(scenarios, jobs, records_by_job, elapsed_by_job)
