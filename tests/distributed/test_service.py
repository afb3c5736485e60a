"""End-to-end distributed sweeps pinned equal to sequential execution."""

from __future__ import annotations

import pytest

from repro.distributed.jobs import execute_job, jobs_for_sweep
from repro.distributed.service import (
    collect_from_spool,
    collect_results,
    run_sweep_jobs,
)
from repro.distributed.spool import JobQueue
from repro.scenario import ExecutionPolicy, Scenario, Session
from repro.utils.exceptions import SimulationError


def make(**overrides) -> Scenario:
    base = dict(
        function="sphere", nodes=4, particles_per_node=4,
        total_evaluations=400, gossip_cycle=4, repetitions=2, seed=9,
    )
    base.update(overrides)
    return Scenario(**base)


def sweep_points() -> list[Scenario]:
    return [make(), make(gossip_cycle=2), make(function="f2")]


@pytest.fixture(scope="module")
def sequential() -> list:
    return [Session(s).run() for s in sweep_points()]


def assert_pinned_equal(results, sequential) -> None:
    """Same records, same deterministic point order as the sequential run."""
    assert [r.scenario for r in results] == [r.scenario for r in sequential]
    assert [r.records for r in results] == [r.records for r in sequential]


class TestInlineService:
    def test_equal_to_sequential(self, sequential):
        assert_pinned_equal(run_sweep_jobs(sweep_points()), sequential)

    def test_progress_fires_once_per_point(self):
        seen = []
        run_sweep_jobs(
            sweep_points(),
            progress=lambda i, s, r: seen.append((i, len(r.records))),
        )
        assert sorted(seen) == [(0, 2), (1, 2), (2, 2)]

    def test_empty_sweep(self):
        assert run_sweep_jobs([]) == []

    def test_rejects_invalid_workers(self):
        with pytest.raises(ValueError):
            run_sweep_jobs(sweep_points(), policy=ExecutionPolicy(workers=0))

    def test_rejects_loose_workers_kwarg(self):
        with pytest.raises(TypeError):
            run_sweep_jobs(sweep_points(), workers=2)


class TestProcessPool:
    def test_two_workers_equal_to_sequential(self, sequential):
        """Cross-point scheduling: 6 jobs fill a 2-process pool."""
        assert_pinned_equal(
            run_sweep_jobs(
                sweep_points(), policy=ExecutionPolicy(workers=2)
            ),
            sequential,
        )


class TestSpoolService:
    def test_two_process_spool_sweep_equal_to_sequential(
        self, tmp_path, sequential
    ):
        """The acceptance pin: a spool-backed sweep over two worker
        processes returns the sequential ``Session.sweep`` output —
        same records, same deterministic point order — even though
        every record crossed process boundaries as JSON."""
        results = run_sweep_jobs(
            sweep_points(),
            policy=ExecutionPolicy(
                workers=2, spool=str(tmp_path), stale_after=5.0
            ),
        )
        assert_pinned_equal(results, sequential)

    def test_spool_sweep_resumes_partial_results(self, tmp_path, sequential):
        """Jobs already completed in the spool are not re-run."""
        points = sweep_points()
        jobs = jobs_for_sweep(points)
        queue = JobQueue(tmp_path)
        # Pre-complete one job by hand (simulating an earlier,
        # interrupted sweep).
        queue.submit(jobs[0])
        claim = queue.claim()
        queue.complete(claim, execute_job(jobs[0]), elapsed_seconds=0.1)
        results = run_sweep_jobs(
            points, policy=ExecutionPolicy(workers=1, spool=str(tmp_path))
        )
        assert_pinned_equal(results, sequential)

    def test_stranded_claim_recovered_by_coordinator(
        self, tmp_path, sequential
    ):
        """A job claimed by a worker that died before the sweep started
        is requeued (dead-owner probe) and finished, not stranded."""
        from repro.distributed.spool import worker_identity

        points = sweep_points()
        jobs = jobs_for_sweep(points)
        queue = JobQueue(tmp_path)
        queue.submit(jobs[0])
        # The claimant's recorded pid does not exist: a dead worker.
        assert queue.claim(owner=worker_identity(999_999_999)) is not None
        results = run_sweep_jobs(
            points,
            policy=ExecutionPolicy(
                workers=1, spool=str(tmp_path), stale_after=60.0
            ),
        )
        assert_pinned_equal(results, sequential)

    def test_collect_from_spool_incomplete_raises(self, tmp_path):
        points = sweep_points()
        queue = JobQueue(tmp_path)
        for job in jobs_for_sweep(points):
            queue.submit(job)
        with pytest.raises(SimulationError, match="no results"):
            collect_from_spool(queue, points)

    def test_collect_from_spool_dead_letter_raises(self, tmp_path):
        # A payload the worker's Scenario.from_dict rejects (e < n).
        points = [{**make(repetitions=1).to_dict(), "total_evaluations": 2}]
        queue = JobQueue(tmp_path, max_retries=0)
        for job in jobs_for_sweep(points):
            queue.submit(job)
        from repro.distributed.worker import run_worker

        run_worker(queue)
        with pytest.raises(SimulationError, match="dead-lettered"):
            collect_from_spool(queue, points)


class TestCollectResults:
    def test_reassembles_out_of_completion_order(self, sequential):
        points = sweep_points()
        jobs = jobs_for_sweep(points)
        records_by_job = {}
        for job in reversed(jobs):  # completion order != sweep order
            records_by_job[job.job_id] = execute_job(job)
        assert_pinned_equal(
            collect_results(points, jobs, records_by_job), sequential
        )

    def test_missing_job_raises(self):
        points = sweep_points()
        jobs = jobs_for_sweep(points)
        with pytest.raises(SimulationError, match="incomplete"):
            collect_results(points, jobs, {})

    def test_record_count_mismatch_raises(self):
        points = [make(repetitions=1)]
        jobs = jobs_for_sweep(points)
        with pytest.raises(SimulationError, match="record"):
            collect_results(points, jobs, {jobs[0].job_id: []})


class TestSessionSweepIntegration:
    def test_sweep_workers_equal_to_sequential(self):
        session = Session(make())
        seq = session.sweep(gossip_cycle=[4, 2])
        par = session.sweep(
            policy=ExecutionPolicy(workers=2), gossip_cycle=[4, 2]
        )
        assert_pinned_equal(par, seq)

    def test_sweep_spool_equal_to_sequential(self, tmp_path):
        session = Session(make())
        seq = session.sweep(gossip_cycle=[4, 2])
        spooled = session.sweep(
            policy=ExecutionPolicy(workers=2, spool=str(tmp_path)),
            gossip_cycle=[4, 2],
        )
        assert_pinned_equal(spooled, seq)

    def test_sweep_fault_tolerance_knobs_pass_through(self, tmp_path):
        session = Session(make())
        seq = session.sweep(gossip_cycle=[4, 2])
        par = session.sweep(
            policy=ExecutionPolicy(
                workers=2, spool=str(tmp_path),
                heartbeat_interval=0.1, job_timeout=120.0,
            ),
            gossip_cycle=[4, 2],
        )
        assert_pinned_equal(par, seq)

    def test_sweep_progress_covers_every_point(self):
        seen = []
        Session(make()).sweep(
            policy=ExecutionPolicy(workers=2),
            progress=lambda s, r: seen.append(s.gossip_cycle),
            gossip_cycle=[4, 2],
        )
        assert sorted(seen) == [2, 4]


class TestCli:
    def test_submit_worker_status_collect_flow(self, tmp_path, capsys):
        import json

        from repro.distributed.__main__ import main

        points = sweep_points()
        scenarios_file = tmp_path / "sweep.json"
        scenarios_file.write_text(
            json.dumps([s.to_dict() for s in points])
        )
        spool = str(tmp_path / "spool")

        assert main(["submit", "--spool", spool,
                     "--scenarios", str(scenarios_file)]) == 0
        out = capsys.readouterr().out
        assert "submitted 6 of 6" in out

        # Re-submitting is a no-op (resumable).
        assert main(["submit", "--spool", spool,
                     "--scenarios", str(scenarios_file)]) == 0
        assert "submitted 0 of 6" in capsys.readouterr().out

        assert main(["worker", "--spool", spool, "--quiet"]) == 0
        assert "executed 6 job(s)" in capsys.readouterr().out

        assert main(["status", "--spool", spool]) == 0
        status_out = capsys.readouterr().out
        assert "results=6" in status_out
        # The worker published a status sidecar; status surfaces it.
        assert "worker " in status_out
        assert "jobs=6" in status_out

        csv_path = tmp_path / "runs.csv"
        assert main(["collect", "--spool", spool,
                     "--scenarios", str(scenarios_file),
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("mean quality") == 3
        assert csv_path.read_text().startswith("function,")

    def test_status_json_is_machine_readable(self, tmp_path, capsys):
        import json

        from repro.distributed.__main__ import main

        points = [sweep_points()[0]]
        scenarios_file = tmp_path / "sweep.json"
        scenarios_file.write_text(
            json.dumps([s.to_dict() for s in points])
        )
        spool = str(tmp_path / "spool")
        assert main(["submit", "--spool", spool,
                     "--scenarios", str(scenarios_file)]) == 0
        capsys.readouterr()

        assert main(["status", "--spool", spool, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["claims", "counts", "workers"]
        assert doc["counts"]["pending"] == 2
        assert doc["claims"] == [] and doc["workers"] == []

        assert main(["worker", "--spool", spool, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["status", "--spool", spool, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["results"] == 2
        (worker_status,) = doc["workers"]
        assert worker_status["jobs_done"] == 2

    def test_status_watch_redraws_until_interrupted(
            self, tmp_path, capsys, monkeypatch):
        import time

        from repro.distributed.__main__ import main

        spool = str(tmp_path / "spool")
        JobQueue(spool)
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) >= 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", fake_sleep)
        assert main(["status", "--spool", spool,
                     "--watch", "--interval", "0.5"]) == 0
        out = capsys.readouterr().out
        # One ANSI clear-and-home per redraw, Ctrl-C exits cleanly.
        assert out.count("\x1b[2J\x1b[H") == 2
        assert sleeps == [0.5, 0.5]

    def test_status_watch_rejects_nonpositive_interval(self, tmp_path):
        from repro.distributed.__main__ import main

        spool = str(tmp_path / "spool")
        JobQueue(spool)
        with pytest.raises(SystemExit):
            main(["status", "--spool", spool, "--watch", "--interval", "0"])

    def test_requeue_subcommand_recovers_dead_claims(self, tmp_path, capsys):
        from repro.distributed.__main__ import main
        from repro.distributed.spool import worker_identity

        points = [sweep_points()[0]]
        spool = str(tmp_path / "spool")
        queue = JobQueue(spool)
        for job in jobs_for_sweep(points):
            queue.submit(job)
        queue.claim(owner=worker_identity(999_999_999))  # dead worker

        assert main(["requeue", "--spool", spool]) == 0
        assert "requeued 1 job(s)" in capsys.readouterr().out
        assert len(queue.pending_ids()) == 2
        assert queue.claimed_ids() == []

    def test_requeue_subcommand_retry_failed_flag(self, tmp_path, capsys):
        from repro.distributed.__main__ import main

        points = [sweep_points()[0].with_(repetitions=1)]
        spool = str(tmp_path / "spool")
        queue = JobQueue(spool, max_retries=0)
        for job in jobs_for_sweep(points):
            queue.submit(job)
        queue.release(queue.claim(), error="boom")
        assert len(queue.failed_ids()) == 1

        assert main(["requeue", "--spool", spool]) == 0
        capsys.readouterr()
        assert len(queue.failed_ids()) == 1  # untouched without the flag

        assert main(["requeue", "--spool", spool, "--retry-failed"]) == 0
        assert "requeued 1 job(s)" in capsys.readouterr().out
        assert queue.failed_ids() == []
        assert len(queue.pending_ids()) == 1
