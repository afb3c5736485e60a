"""SweepJob decomposition and JSON round-trip."""

from __future__ import annotations

import json

import pytest

from repro.distributed.jobs import SweepJob, execute_job, jobs_for_sweep
from repro.scenario import Scenario, ScenarioValidationError, Session


def make(**overrides) -> Scenario:
    base = dict(
        function="sphere", nodes=4, particles_per_node=4,
        total_evaluations=400, gossip_cycle=4, repetitions=3, seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestSweepJob:
    def test_json_round_trip(self):
        job = SweepJob(
            point_index=2, scenario=make().to_dict(), repetitions=(0, 1)
        )
        restored = SweepJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert restored == job
        assert restored.job_id == job.job_id

    def test_job_id_deterministic_and_scenario_scoped(self):
        a = SweepJob(point_index=0, scenario=make().to_dict(), repetitions=(0,))
        b = SweepJob(point_index=0, scenario=make().to_dict(), repetitions=(0,))
        other = SweepJob(
            point_index=0, scenario=make(seed=8).to_dict(), repetitions=(0,)
        )
        assert a.job_id == b.job_id
        # Different sweeps sharing a spool directory must not collide.
        assert a.job_id != other.job_id

    def test_job_id_hashes_the_scenario_once(self, monkeypatch):
        from repro.distributed import jobs

        calls = []
        digest = jobs._scenario_digest
        monkeypatch.setattr(
            jobs, "_scenario_digest", lambda s: calls.append(1) or digest(s)
        )
        job = SweepJob(point_index=0, scenario=make().to_dict(), repetitions=(0,))
        assert job.job_id == job.job_id == job.job_id
        assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepJob(point_index=-1, scenario=make().to_dict(), repetitions=(0,))
        with pytest.raises(ValueError):
            SweepJob(point_index=0, scenario=make().to_dict(), repetitions=())
        with pytest.raises(ValueError):
            SweepJob(point_index=0, scenario=make().to_dict(), repetitions=(1, 1))

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        payload = SweepJob(
            point_index=0, scenario=make().to_dict(), repetitions=(0,)
        ).to_dict()
        with pytest.raises(ValueError, match="unknown"):
            SweepJob.from_dict({**payload, "bogus": 1})
        del payload["repetitions"]
        with pytest.raises(ValueError, match="repetitions"):
            SweepJob.from_dict(payload)


class TestJobsForSweep:
    def test_one_job_per_repetition_by_default(self):
        scenarios = [make(), make(gossip_cycle=2)]
        jobs = jobs_for_sweep(scenarios)
        assert len(jobs) == 6
        assert [(j.point_index, j.repetitions) for j in jobs] == [
            (0, (0,)), (0, (1,)), (0, (2,)),
            (1, (0,)), (1, (1,)), (1, (2,)),
        ]
        assert len({j.job_id for j in jobs}) == 6

    def test_reps_per_job_chunks(self):
        jobs = jobs_for_sweep([make()], reps_per_job=2)
        assert [j.repetitions for j in jobs] == [(0, 1), (2,)]

    def test_accepts_scenario_dicts(self):
        jobs = jobs_for_sweep([make().to_dict()])
        assert len(jobs) == 3

    def test_invalid_reps_per_job(self):
        with pytest.raises(ValueError):
            jobs_for_sweep([make()], reps_per_job=0)


class TestKernelBackendPayload:
    """Job payloads carry ``kernel_backend`` as the scenario has it;
    nothing rewrites it before workers start."""

    def test_payload_carries_numpy(self):
        jobs = jobs_for_sweep([make(engine="fast")])
        assert all(j.scenario["kernel_backend"] == "numpy" for j in jobs)

    def test_explicit_numpy_ids_equal_default(self):
        default = jobs_for_sweep([make(engine="fast")])
        explicit = jobs_for_sweep([make(engine="fast", kernel_backend="numpy")])
        assert [j.job_id for j in explicit] == [j.job_id for j in default]

    def test_other_backend_payload_fails_at_execution(self):
        """A payload naming another backend (e.g. spooled as "numba")
        passes through submission and fails loudly on the worker."""
        payload = make(engine="fast").to_dict()
        payload["kernel_backend"] = "numba"
        job = jobs_for_sweep([payload])[0]
        assert job.scenario["kernel_backend"] == "numba"
        with pytest.raises(ScenarioValidationError, match="kernel_backend"):
            execute_job(job)


class TestExecuteJob:
    def test_round_trips_scenario_and_matches_direct_run(self):
        scenario = make()
        job = jobs_for_sweep([scenario], reps_per_job=3)[0]
        records = execute_job(job)
        direct = [Session(scenario).run_one(rep) for rep in range(3)]
        assert records == direct
