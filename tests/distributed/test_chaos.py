"""Chaos harness: sweeps survive injected faults and killed workers.

The acceptance pins of the fault-tolerant service live here:

* a sweep driven through a fault-injecting :class:`ChaosJobQueue`
  (transient IO errors, torn result writes, claim races, delays)
  completes **bit-identical** to the sequential run;
* a worker SIGKILLed mid-job strands nothing — a restarted worker
  recovers the claim and the collected sweep equals sequential;
* with heartbeats, ``stale_after`` set *below* the job duration
  reclaims only dead workers' claims (no live-claim theft);
* SIGTERM shuts a worker down gracefully: the in-flight claim is
  released without consuming a retry.

The kill-and-resume tests honor ``CHAOS_SPOOL_DIR`` (CI sets it so a
failing run's spool directory can be uploaded as an artifact).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.distributed.chaos import (
    DEAD_PID,
    ChaosJobQueue,
    FaultInjector,
    FaultRates,
)
from repro.distributed.jobs import jobs_for_sweep
from repro.distributed.service import collect_from_spool
from repro.distributed.spool import ClaimHeartbeat, JobQueue, worker_identity
from repro.distributed.worker import run_worker
from repro.scenario import ExecutionPolicy, Scenario, Session

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def make(**overrides) -> Scenario:
    base = dict(
        function="sphere", nodes=4, particles_per_node=4,
        total_evaluations=400, gossip_cycle=4, repetitions=2, seed=5,
    )
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture
def chaos_spool(tmp_path, request):
    """A spool directory CI can upload on failure.

    With ``CHAOS_SPOOL_DIR`` set (the CI chaos-smoke job), the spool
    lives under that path and is left behind after the run — the
    workflow uploads it as an artifact only when the job fails.
    Without it (local runs), the spool is an ordinary tmp_path child.
    """
    root = os.environ.get("CHAOS_SPOOL_DIR")
    if root is None:
        yield tmp_path / "spool"
        return
    spool = Path(root) / request.node.name
    shutil.rmtree(spool, ignore_errors=True)  # never resume a stale spool
    spool.mkdir(parents=True, exist_ok=True)
    yield spool


def drain_with_restarts(
    queue: JobQueue, max_restarts: int = 40, **worker_kwargs
) -> int:
    """Run workers to completion, restarting after injected crashes.

    A worker whose spool-IO retries are exhausted dies with ``OSError``
    — exactly like a real worker losing its filesystem.  The operator
    move is: reclaim whatever the dead worker still held (its pid is
    *this* process, which is alive, so the heartbeat-age policy — not
    the owner probe — must free the claim) and start a new worker.
    """
    executed = 0
    for _ in range(max_restarts):
        try:
            executed += run_worker(
                queue,
                policy=ExecutionPolicy(heartbeat_interval=0.05),
                poll_interval=0.01,
                **worker_kwargs,
            )
        except OSError:
            queue.requeue_stale(0.0)  # our crashed worker's claims
            continue
        queue.requeue_stale(0.0)
        if not queue.pending_ids() and not queue.claimed_ids():
            return executed
    raise AssertionError("chaos sweep did not drain within the restart budget")


class TestFaultRates:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="transient_error"):
            FaultRates(transient_error=1.5)
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultRates(delay_seconds=-1.0)

    def test_injector_schedule_is_seeded(self):
        a = FaultInjector(FaultRates(transient_error=0.5), seed=42)
        b = FaultInjector(FaultRates(transient_error=0.5), seed=42)
        rolls = [(a.roll("transient_error", 0.5), b.roll("transient_error", 0.5))
                 for _ in range(64)]
        assert all(x == y for x, y in rolls)
        assert a.injected == b.injected
        assert 0 < a.injected["transient_error"] < 64

    def test_zero_rate_never_fires(self):
        injector = FaultInjector(FaultRates(), seed=0)
        assert not any(injector.roll("transient_error", 0.0) for _ in range(32))
        assert not injector.injected


class TestChaosSweep:
    def test_sweep_bit_identical_under_faults(self, tmp_path):
        """The chaos pin: every injected fault class fires, and the
        collected sweep still equals the sequential run bit-for-bit."""
        points = [make(seed=11), make(seed=12, gossip_cycle=2)]
        sequential = [Session(s).run() for s in points]

        injector = FaultInjector(
            FaultRates(
                transient_error=0.25,
                torn_result_write=0.3,
                claim_race=0.3,
                delay=0.2,
                delay_seconds=0.002,
            ),
            seed=1234,
        )
        queue = ChaosJobQueue(tmp_path, injector, max_retries=10)
        jobs = jobs_for_sweep(points)
        for job in jobs:
            queue.submit(job)

        drain_with_restarts(queue)

        for kind in ("transient_error", "torn_result_write", "claim_race"):
            assert injector.injected[kind] > 0, f"{kind} never fired"
        assert queue.failed_ids() == []

        # Collect through a clean queue: the spool's *contents* must
        # have healed, not just the wrapper's view of them.
        results = collect_from_spool(JobQueue(tmp_path), points)
        assert [r.records for r in results] == [
            r.records for r in sequential
        ]

    def test_transient_claim_errors_ride_out_backoff(self, tmp_path):
        """A fault that clears within the retry budget never surfaces."""

        class FailFirstN(FaultInjector):
            def __init__(self, n):
                super().__init__(FaultRates(transient_error=1.0), seed=0)
                self.remaining = n

            def roll(self, kind, rate):
                if kind == "transient_error" and self.remaining > 0:
                    self.remaining -= 1
                    self.injected[kind] += 1
                    return True
                return False

        queue = ChaosJobQueue(tmp_path, FailFirstN(3))
        queue.submit(jobs_for_sweep([make(repetitions=1)])[0])
        assert run_worker(queue, policy=ExecutionPolicy(heartbeat_interval=0.05)) == 1
        assert queue.counts()["results"] == 1

    def test_persistent_spool_failure_surfaces(self, tmp_path):
        """IO that never recovers exhausts the backoff and propagates —
        a worker must not spin forever against a dead filesystem."""
        queue = ChaosJobQueue(
            tmp_path, FaultInjector(FaultRates(transient_error=1.0), seed=0)
        )
        queue.submit(jobs_for_sweep([make(repetitions=1)])[0])
        with pytest.raises(OSError, match="chaos"):
            run_worker(queue, policy=ExecutionPolicy(heartbeat_interval=0.05))


class TestHeartbeats:
    def test_stale_after_below_job_duration_steals_only_dead_claims(
        self, tmp_path
    ):
        """The acceptance pin for heartbeats: with stamps flowing,
        ``stale_after`` far below the job duration reclaims the dead
        worker's claim and never touches the live one."""
        queue = JobQueue(tmp_path)
        jobs = [
            jobs_for_sweep([make(seed=s)])[0] for s in (21, 22)
        ]
        for job in jobs:
            queue.submit(job)

        live = queue.claim()  # held by this (live) process
        assert live is not None
        heartbeat = ClaimHeartbeat(queue, interval=0.05)
        try:
            with heartbeat.holding(live):
                dead = queue.claim(owner=worker_identity(DEAD_PID))
                assert dead is not None
                dead_path = tmp_path / "claimed" / f"{dead.job.job_id}.json"
                long_ago = time.time() - 60.0
                os.utime(dead_path, (long_ago, long_ago))  # heartbeats stopped

                time.sleep(0.4)  # several heartbeat periods of "job runtime"
                # stale_after (0.2s) is far below the simulated job length
                # (the live claim has been held ~0.4s and counting).
                assert queue.requeue_stale(0.2) == [dead.job.job_id]
                assert queue.claimed_ids() == [live.job.job_id]

            # Stamps stopped with the release, though the worker's one
            # thread keeps running: now the live claim ages out.
            time.sleep(0.3)
            assert queue.requeue_stale(0.2) == [live.job.job_id]
        finally:
            heartbeat.close()

    def test_worker_stamps_claim_between_repetitions(self, tmp_path):
        """The execute_job hook is the primary heartbeat: even with the
        fallback timer effectively disabled, every repetition boundary
        stamps the claim."""
        stamps = []

        class Recording(JobQueue):
            def heartbeat(self, claim):
                stamps.append(time.time())
                return super().heartbeat(claim)

        queue = Recording(tmp_path)
        queue.submit(jobs_for_sweep([make(repetitions=3)], reps_per_job=3)[0])
        assert run_worker(queue, policy=ExecutionPolicy(heartbeat_interval=3600.0)) == 1
        assert len(stamps) >= 3  # one per repetition (fallback timer idle)

    def test_claim_heartbeat_detects_lost_claim(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(jobs_for_sweep([make()])[0])
        claim = queue.claim()
        beat = ClaimHeartbeat(queue, interval=30.0)
        try:
            with beat.holding(claim):
                assert beat.beat() is True
                (tmp_path / "claimed" / f"{claim.job.job_id}.json").unlink()
                assert beat.beat() is False
                assert beat.lost is True
        finally:
            beat.close()

    def test_heartbeat_interval_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ClaimHeartbeat(JobQueue(tmp_path), interval=0.0)

    def test_one_thread_serves_every_claim_and_stamps_only_the_held_one(
        self, tmp_path
    ):
        queue = JobQueue(tmp_path)
        for seed in (31, 32):
            queue.submit(jobs_for_sweep([make(seed=seed)])[0])
        first, second = queue.claim(), queue.claim()

        def path(claim):
            return tmp_path / "claimed" / f"{claim.job.job_id}.json"

        long_ago = time.time() - 60.0
        heartbeat = ClaimHeartbeat(queue, interval=0.05)
        threads = []
        try:
            for held, idle in ((first, second), (second, first)):
                for claim in (held, idle):
                    os.utime(path(claim), (long_ago, long_ago))
                with heartbeat.holding(held):
                    time.sleep(0.3)  # several heartbeat periods
                threads.append(heartbeat._thread)
                released = path(held).stat().st_mtime
                assert time.time() - released < 5.0  # the held claim was stamped
                assert abs(path(idle).stat().st_mtime - long_ago) < 1.0  # the other was not
                time.sleep(0.2)
                assert path(held).stat().st_mtime == released  # none after release
            assert threads[0] is threads[1] and threads[0].is_alive()
        finally:
            heartbeat.close()
        assert not threads[0].is_alive()

    def test_no_stamp_lands_after_release_under_thread_switching(
        self, tmp_path
    ):
        """Stress: a stamp every 0.5 ms against 300 hold/release cycles,
        with the interpreter switching threads as often as it can."""
        stamps = []
        released = [False]

        class Recording(JobQueue):
            def heartbeat(self, claim):
                time.sleep(0.0002)  # a slow stamp: release must wait it out
                stamps.append(released[0])
                return True

        queue = Recording(tmp_path)
        queue.submit(jobs_for_sweep([make()])[0])
        claim = queue.claim()
        heartbeat = ClaimHeartbeat(queue, interval=0.0005)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 10.0
            for _ in range(300):
                released[0] = False
                with heartbeat.holding(claim):
                    time.sleep(0.001)
                released[0] = True
                time.sleep(0.0005)
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(switch)
            heartbeat.close()
        assert not heartbeat._thread.is_alive()
        assert stamps and not any(stamps)


class TestJobTimeout:
    def test_timeout_releases_with_timeout_error_then_dead_letters(
        self, tmp_path
    ):
        queue = JobQueue(tmp_path, max_retries=1)
        job = jobs_for_sweep([make(repetitions=2)], reps_per_job=2)[0]
        queue.submit(job)
        # Deadline of 0s: the between-repetition check trips before the
        # first repetition, releases with a timeout error, the retry
        # trips again, and the job dead-letters.
        assert run_worker(
            queue,
            policy=ExecutionPolicy(job_timeout=0.0, heartbeat_interval=0.05),
        ) == 0
        assert queue.failed_ids() == [job.job_id]
        failed = queue.load_failed(job.job_id)
        assert failed["error"].startswith("timeout:")
        assert failed["attempts"] == 2  # initial try + one retry

    def test_generous_timeout_does_not_interfere(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(jobs_for_sweep([make(repetitions=2)], reps_per_job=2)[0])
        assert run_worker(
            queue,
            policy=ExecutionPolicy(job_timeout=3600.0, heartbeat_interval=0.05),
        ) == 1
        assert queue.counts()["results"] == 1


class TestFailureClassification:
    def test_permanent_failure_dead_letters_without_burning_retries(
        self, tmp_path
    ):
        """A deterministic failure (scenario validation) must not be
        re-run max_retries times — it dead-letters on first sight."""
        queue = JobQueue(tmp_path, max_retries=5)
        # A payload the worker's Scenario.from_dict rejects: budget < 1
        # eval per node.
        job = jobs_for_sweep(
            [{**make(repetitions=1).to_dict(), "total_evaluations": 2}]
        )[0]
        queue.submit(job)
        assert run_worker(queue, policy=ExecutionPolicy(heartbeat_interval=0.05)) == 0
        assert queue.failed_ids() == [job.job_id]
        failed = queue.load_failed(job.job_id)
        assert "ScenarioValidationError" in failed["error"]
        assert failed["attempts"] == 1  # exactly one execution


class TestKillAndResume:
    def _submit_sweep(self, spool: Path) -> tuple[list[Scenario], list]:
        # ~0.5s per job (12 bundled repetitions): slow enough to
        # SIGKILL mid-job, fast enough for CI.
        points = [
            make(total_evaluations=2000, repetitions=12, seed=31),
            make(total_evaluations=2000, repetitions=12, seed=32),
        ]
        sequential = [Session(s).run() for s in points]
        queue = JobQueue(spool)
        for job in jobs_for_sweep(points, reps_per_job=12):
            queue.submit(job)
        return points, sequential

    def _spawn_worker(self, spool: Path) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.distributed", "worker",
                "--spool", str(spool), "--poll", "0.05",
                "--heartbeat", "0.05", "--quiet",
            ],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _wait_for_claim(self, queue: JobQueue, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if queue.claimed_ids():
                return
            time.sleep(0.005)
        raise AssertionError("worker never claimed a job")

    def test_sigkill_mid_job_restart_completes_bit_identical(
        self, chaos_spool
    ):
        """The headline acceptance test: SIGKILL a worker mid-drain,
        start a fresh worker, and the collected sweep is bit-identical
        to the sequential run — nothing lost, nothing duplicated."""
        points, sequential = self._submit_sweep(chaos_spool)
        queue = JobQueue(chaos_spool)

        proc = self._spawn_worker(chaos_spool)
        try:
            self._wait_for_claim(queue)
            time.sleep(0.15)  # let it get well into the job
        finally:
            proc.kill()  # SIGKILL: no cleanup, no release
            proc.wait(timeout=30)

        # The replacement worker's idle recovery probes the dead pid,
        # requeues its claim, and finishes the sweep.
        run_worker(
            queue,
            poll_interval=0.01,
            policy=ExecutionPolicy(heartbeat_interval=0.05),
        )

        assert queue.counts()["failed"] == 0
        assert queue.claimed_ids() == []
        results = collect_from_spool(queue, points, reps_per_job=12)
        assert [r.records for r in results] == [
            r.records for r in sequential
        ]

    def test_sigterm_releases_claim_without_consuming_retry(
        self, chaos_spool
    ):
        """Graceful shutdown: the worker exits cleanly, its in-flight
        claim goes back to pending with the attempt counter intact."""
        points = [make(total_evaluations=400, repetitions=50, seed=41)]
        queue = JobQueue(chaos_spool)
        job = jobs_for_sweep(points, reps_per_job=50)[0]
        queue.submit(job)

        proc = self._spawn_worker(chaos_spool)
        try:
            self._wait_for_claim(queue)
            time.sleep(0.1)  # mid-job, between repetitions
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=30)

        assert returncode == 0  # graceful exit, not a crash
        assert queue.claimed_ids() == []  # nothing stranded
        assert queue.failed_ids() == []
        pending = queue.pending_ids()
        if pending:  # SIGTERM landed mid-job (the overwhelmingly likely path)
            payload = json.loads(
                (Path(chaos_spool) / "pending" / f"{job.job_id}.json").read_text()
            )
            assert payload["attempts"] == 0  # no retry consumed
            assert "shutdown" in payload["last_error"]
        else:  # the job finished just before the signal was seen
            assert queue.result_ids() == [job.job_id]
