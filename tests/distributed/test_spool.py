"""Spool-queue semantics: atomic claim, retry, killed-worker recovery."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.distributed.jobs import SweepJob, execute_job, jobs_for_sweep
from repro.distributed.spool import (
    JobQueue,
    SpoolCorruptionError,
    with_retries,
    worker_identity,
)
from repro.distributed.worker import run_worker
from repro.scenario import ExecutionPolicy, Scenario

#: A pid far above any real pid_max: worker_identity(_DEAD_PID) names a
#: process on this host that provably does not exist.
_DEAD_PID = 999_999_999

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


def submit_one(queue: JobQueue, **overrides) -> SweepJob:
    job = jobs_for_sweep([make(**overrides)], reps_per_job=2)[0]
    queue.submit(job)
    return job


class TestQueueBasics:
    def test_submit_claim_complete(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        assert queue.pending_ids() == [job.job_id]

        claim = queue.claim()
        assert claim is not None and claim.job == job
        assert claim.attempts == 0
        assert queue.pending_ids() == []
        assert queue.claimed_ids() == [job.job_id]

        queue.complete(claim, execute_job(job), elapsed_seconds=1.5)
        assert queue.claimed_ids() == []
        assert queue.result_ids() == [job.job_id]
        payload = queue.load_result(job.job_id)
        assert payload["elapsed_seconds"] == 1.5
        assert len(queue.load_result(job.job_id)["records"]) == 2

    def test_claim_empty_returns_none(self, tmp_path):
        assert JobQueue(tmp_path).claim() is None

    def test_submit_is_idempotent_across_states(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        assert queue.submit(job) is False  # already pending
        claim = queue.claim()
        assert queue.submit(job) is False  # claimed
        queue.complete(claim, execute_job(job))
        assert queue.submit(job) is False  # finished: resumable sweeps
        assert queue.pending_ids() == []

    def test_release_requeues_with_attempt_bump(self, tmp_path):
        queue = JobQueue(tmp_path, max_retries=2)
        job = submit_one(queue)
        claim = queue.claim()
        assert queue.release(claim, error="boom") is True
        assert queue.pending_ids() == [job.job_id]
        assert queue.claim().attempts == 1

    def test_release_dead_letters_past_max_retries(self, tmp_path):
        queue = JobQueue(tmp_path, max_retries=1)
        job = submit_one(queue)
        for expected_attempts in (0, 1):
            claim = queue.claim()
            assert claim.attempts == expected_attempts
            queue.release(claim, error="boom")
        assert queue.pending_ids() == []
        assert queue.failed_ids() == [job.job_id]
        assert queue.load_failed(job.job_id)["error"] == "boom"

    def test_counts_snapshot(self, tmp_path):
        queue = JobQueue(tmp_path)
        submit_one(queue)
        assert queue.counts() == {
            "pending": 1, "claimed": 0, "results": 0, "failed": 0,
        }


class TestKilledWorker:
    def test_stale_claim_requeued_and_finished_by_next_worker(self, tmp_path):
        """A worker that dies after claiming must not strand the job."""
        queue = JobQueue(tmp_path)
        job = submit_one(queue)

        # A real separate process claims the job and is "killed"
        # (exits without completing or releasing).
        script = (
            "import os\n"
            "from repro.distributed.spool import JobQueue\n"
            f"claim = JobQueue({str(tmp_path)!r}).claim()\n"
            "os._exit(0 if claim is not None else 3)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=_env(), timeout=120
        )
        assert proc.returncode == 0
        assert queue.pending_ids() == []
        assert queue.claimed_ids() == [job.job_id]
        assert queue.claim() is None  # nothing claimable while stranded

        # The owner probe sees the claimant's pid is gone and requeues.
        assert queue.requeue_abandoned() == [job.job_id]
        assert queue.pending_ids() == [job.job_id]

        # The next worker picks it up and finishes the sweep.
        assert run_worker(queue) == 1
        assert queue.result_ids() == [job.job_id]
        assert queue.load_result(job.job_id)["attempts"] == 1

    def test_requeue_stale_respects_age(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        queue.claim()
        assert queue.requeue_stale(3600.0) == []  # fresh claim untouched
        assert queue.requeue_stale(0.0) == [job.job_id]

    def test_claim_age_measured_from_claim_not_submit(self, tmp_path):
        """Regression: the pending→claimed rename preserves mtime, so
        staleness used to measure time since *submit* — a job that sat
        queued for a while looked stale the instant it was claimed."""
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        pending = tmp_path / "pending" / f"{job.job_id}.json"
        long_ago = time.time() - 3600.0
        os.utime(pending, (long_ago, long_ago))  # queued for an hour
        queue.claim()
        assert queue.requeue_stale(60.0) == []  # claimed seconds ago

    def test_requeue_abandoned_dead_local_owner(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        queue.claim(owner=worker_identity(_DEAD_PID))
        assert queue.requeue_abandoned() == [job.job_id]
        assert queue.claim().attempts == 1

    def test_requeue_abandoned_leaves_live_owner(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        queue.claim()  # owned by this live process
        assert queue.requeue_abandoned() == []
        assert queue.claimed_ids() == [job.job_id]

    def test_recovery_scoped_to_job_ids(self, tmp_path):
        """A coordinator must never requeue another sweep's claims on a
        shared spool — both recovery paths honor the job-id scope."""
        queue = JobQueue(tmp_path)
        mine = submit_one(queue, seed=1)
        other = submit_one(queue, seed=2)
        assert queue.claim(owner=worker_identity(_DEAD_PID)) is not None
        assert queue.claim(owner=worker_identity(_DEAD_PID)) is not None

        assert queue.requeue_abandoned(job_ids={mine.job_id}) == [mine.job_id]
        assert queue.claimed_ids() == [other.job_id]
        assert queue.requeue_stale(0.0, job_ids=set()) == []
        assert queue.requeue_stale(0.0, job_ids={other.job_id}) == [
            other.job_id
        ]

    def test_retry_failed_unblocks_resume(self, tmp_path):
        """Dead letters would otherwise block a resumed sweep forever
        (submit skips them, collect raises)."""
        queue = JobQueue(tmp_path, max_retries=0)
        job = submit_one(queue)
        queue.release(queue.claim(), error="transient")
        assert queue.failed_ids() == [job.job_id]
        assert queue.submit(job) is False  # resume cannot get past it

        assert queue.retry_failed() == [job.job_id]
        assert queue.failed_ids() == []
        claim = queue.claim()
        assert claim.attempts == 0  # a genuinely fresh start
        queue.complete(claim, execute_job(job))
        assert queue.result_ids() == [job.job_id]

    def test_requeue_abandoned_explicit_owner_list(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        queue.claim(owner="some-other-host:123")
        # Unprobeable remote owner: left for the age policy...
        assert queue.requeue_abandoned() == []
        # ...unless the caller knows that worker is gone.
        assert queue.requeue_abandoned(
            owners={"some-other-host:123"}
        ) == [job.job_id]


class TestWorkerLoop:
    def test_drains_and_reports_count(self, tmp_path):
        queue = JobQueue(tmp_path)
        for seed in (1, 2):
            submit_one(queue, seed=seed)
        messages = []
        assert run_worker(queue, log=messages.append) == 2
        assert queue.counts()["results"] == 2
        assert any("done" in m for m in messages)

    def test_idle_timeout_exits_empty_queue(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert run_worker(queue, poll_interval=0.01, idle_timeout=0.05) == 0

    def test_idle_worker_recovers_dead_owner_claim(self, tmp_path):
        """A sibling worker's abandoned claim is found and executed
        without any coordinator stepping in."""
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        queue.claim(owner=worker_identity(_DEAD_PID))  # killed sibling
        assert run_worker(queue, poll_interval=0.01) == 1
        assert queue.result_ids() == [job.job_id]

    def test_max_jobs_cap(self, tmp_path):
        queue = JobQueue(tmp_path)
        for seed in (1, 2):
            submit_one(queue, seed=seed)
        assert run_worker(queue, max_jobs=1) == 1
        assert queue.counts()["pending"] == 1

    def test_failing_job_is_retried_then_dead_lettered(self, tmp_path):
        queue = JobQueue(tmp_path, max_retries=1)
        # A payload the worker's Scenario.from_dict rejects: budget < 1
        # eval per node.
        job = jobs_for_sweep(
            [{**make(repetitions=1).to_dict(), "total_evaluations": 2}]
        )[0]
        queue.submit(job)
        assert run_worker(queue) == 0
        assert queue.failed_ids() == [job.job_id]
        assert "ScenarioValidationError" in queue.load_failed(job.job_id)["error"]


class TestCrashWindowEdges:
    """The windows a host crash or pid churn can leave behind."""

    def test_truncated_result_surfaces_clean_error(self, tmp_path):
        """Satellite pin: a torn result JSON names the job, never a
        raw JSONDecodeError."""
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        queue.complete(queue.claim(), execute_job(job))
        path = tmp_path / "results" / f"{job.job_id}.json"
        path.write_text(path.read_text()[:40])  # torn mid-payload
        with pytest.raises(SpoolCorruptionError, match=job.job_id):
            queue.load_result(job.job_id)
        with pytest.raises(SpoolCorruptionError, match="truncated or corrupt"):
            queue.load_result(job.job_id)

    def test_corrupt_pending_entry_quarantined_on_claim(self, tmp_path):
        """A truncated pending file cannot wedge the claim scan: it is
        dead-lettered loudly and claiming moves on to real work."""
        queue = JobQueue(tmp_path)
        (tmp_path / "pending" / "p99999-deadbeef-r00000.json").write_text(
            '{"job": {"point_index"'
        )
        assert queue.claim() is None  # quarantined, not claimable, no crash
        failed = queue.failed_ids()
        assert failed == ["p99999-deadbeef-r00000"]
        assert "truncated or corrupt" in queue.load_failed(failed[0])["error"]
        # retry_failed cannot resurrect it (no job payload survived) …
        assert queue.retry_failed() == []
        # … and it never shadows real work.
        job = submit_one(queue)
        claim = queue.claim()
        assert claim is not None and claim.job == job

    def test_double_complete_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        claim = queue.claim()
        records = execute_job(job)
        queue.complete(claim, records, elapsed_seconds=1.0)
        queue.complete(claim, records, elapsed_seconds=2.0)  # duplicate wins race
        assert queue.result_ids() == [job.job_id]
        assert len(queue.load_result(job.job_id)["records"]) == 2
        assert queue.claimed_ids() == []

    def test_requeue_abandoned_spares_recycled_pid(self, tmp_path):
        """Satellite pin: a recorded owner whose pid was reused by an
        unrelated process looks alive to the probe — the claim must be
        left alone (never steal what might be live) and recovered by
        the heartbeat-age policy instead (no stamps from an impostor).
        """
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        # pid 1 exists on every host but is certainly not our worker:
        # the worst-case pid-reuse impostor.
        queue.claim(owner=worker_identity(1))
        assert queue.requeue_abandoned() == []
        assert queue.claimed_ids() == [job.job_id]

        # The impostor never heartbeats, so staleness recovers the job.
        path = tmp_path / "claimed" / f"{job.job_id}.json"
        long_ago = time.time() - 3600.0
        os.utime(path, (long_ago, long_ago))
        assert queue.requeue_stale(60.0) == [job.job_id]

    def test_retry_failed_resets_attempt_counters(self, tmp_path):
        """Satellite pin: an operator retry is a genuinely fresh start
        — the pending payload, not just the next claim, shows zero
        attempts."""
        queue = JobQueue(tmp_path, max_retries=0)
        job = submit_one(queue)
        queue.release(queue.claim(), error="boom")
        assert queue.retry_failed() == [job.job_id]
        payload = json.loads(
            (tmp_path / "pending" / f"{job.job_id}.json").read_text()
        )
        assert payload["attempts"] == 0
        assert payload["last_error"] == "boom"


class TestReleaseModes:
    def test_permanent_release_dead_letters_immediately(self, tmp_path):
        queue = JobQueue(tmp_path, max_retries=5)
        job = submit_one(queue)
        assert queue.release(
            queue.claim(), error="ConfigurationError: bad", permanent=True
        ) is False
        assert queue.failed_ids() == [job.job_id]
        assert queue.pending_ids() == []

    def test_uncounted_release_preserves_attempts(self, tmp_path):
        """Graceful shutdown must not consume the retry budget — even
        at max_retries=0 the job goes back to pending, not failed."""
        queue = JobQueue(tmp_path, max_retries=0)
        job = submit_one(queue)
        assert queue.release(
            queue.claim(), error="worker shutdown (signal 15)",
            count_attempt=False,
        ) is True
        assert queue.pending_ids() == [job.job_id]
        assert queue.claim().attempts == 0


class TestHeartbeatStamp:
    def test_heartbeat_refreshes_claim_mtime(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        claim = queue.claim()
        path = tmp_path / "claimed" / f"{job.job_id}.json"
        long_ago = time.time() - 3600.0
        os.utime(path, (long_ago, long_ago))
        assert queue.heartbeat(claim) is True
        assert time.time() - path.stat().st_mtime < 60.0
        assert queue.requeue_stale(60.0) == []

    def test_heartbeat_on_lost_claim_returns_false(self, tmp_path):
        queue = JobQueue(tmp_path)
        submit_one(queue)
        claim = queue.claim()
        queue.complete(claim, execute_job(claim.job))
        assert queue.heartbeat(claim) is False

    def test_claim_info_reports_owner_age_attempts(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = submit_one(queue)
        queue.claim(owner="somehost:42")
        (info,) = queue.claim_info()
        assert info["job_id"] == job.job_id
        assert info["owner"] == "somehost:42"
        assert info["attempts"] == 0
        assert 0.0 <= info["heartbeat_age"] < 60.0


class TestWorkerStatusSidecars:
    def test_record_and_read_back(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.record_worker_status(
            "hostA:1", jobs_done=3, retries=1, current_job=None
        )
        (status,) = queue.worker_statuses()
        assert status["worker"] == "hostA:1"
        assert status["jobs_done"] == 3
        assert status["retries"] == 1
        assert status["heartbeat_age"] < 60.0

    def test_run_worker_publishes_status(self, tmp_path):
        queue = JobQueue(tmp_path)
        submit_one(queue)
        run_worker(queue, policy=ExecutionPolicy(heartbeat_interval=0.05))
        (status,) = queue.worker_statuses()
        assert status["worker"] == worker_identity()
        assert status["jobs_done"] == 1
        assert status["current_job"] is None

    def test_drain_writes_the_sidecar_per_claim_and_starts_one_heartbeat(
        self, tmp_path, monkeypatch
    ):
        """A drain writes the sidecar at start, at each claim and once on
        going idle (``1 + jobs + 1``), and one heartbeat thread serves
        every job."""
        writes, started = [], []

        class Counting(JobQueue):
            def record_worker_status(self, identity, **fields):
                writes.append(fields)
                super().record_worker_status(identity, **fields)

        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        queue = Counting(tmp_path)
        for job in jobs_for_sweep([make(repetitions=3)], reps_per_job=1):
            queue.submit(job)
        assert run_worker(queue, policy=ExecutionPolicy(heartbeat_interval=0.05)) == 3
        assert len(writes) <= 5
        assert [w["current_job"] is None for w in writes] == [True] + [False] * 3 + [True]
        assert started == ["claim-heartbeat"]
        (status,) = queue.worker_statuses()
        assert status["jobs_done"] == 3
        assert status["current_job"] is None


class TestDurableWrites:
    def test_atomic_write_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        """Satellite pin: the temp file is fsynced before the rename
        and the directory after it — the crash window the seed left
        open."""
        from repro.distributed import spool as spool_mod

        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(spool_mod.os, "fsync", recording_fsync)
        spool_mod._write_json_atomic(tmp_path / "x.json", {"ok": 1})
        assert len(synced) >= 2  # temp file + containing directory
        assert json.loads((tmp_path / "x.json").read_text()) == {"ok": 1}


class TestWithRetries:
    def test_returns_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("blip")
            return "ok"

        assert with_retries(flaky, base_delay=0.001) == "ok"
        assert len(calls) == 3

    def test_exhausted_attempts_raise_last_error(self):
        def always():
            raise OSError("dead filesystem")

        with pytest.raises(OSError, match="dead filesystem"):
            with_retries(always, attempts=3, base_delay=0.001)

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("deterministic")

        with pytest.raises(ValueError):
            with_retries(broken, base_delay=0.001)
        assert len(calls) == 1

    def test_invalid_attempts(self):
        with pytest.raises(ValueError):
            with_retries(lambda: None, attempts=0)


class TestInvalidQueueArgs:
    def test_negative_max_retries(self, tmp_path):
        with pytest.raises(ValueError):
            JobQueue(tmp_path, max_retries=-1)
