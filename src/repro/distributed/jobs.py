"""Sweep jobs: the unit of work the distributed service ships around.

A :class:`SweepJob` names one slice of a sweep — *which point* of the
sweep (by index), *which scenario* (as the JSON dict from
:meth:`~repro.scenario.spec.Scenario.to_dict`) and *which repetitions*
to execute.  Jobs are pure data: JSON-round-trippable, picklable,
deterministic — the same sweep always decomposes into the same jobs
with the same ids, so a coordinator and its workers (possibly on other
hosts) agree on the work-list without talking to each other.

Job ids embed a digest of the scenario payload, so two different
sweeps submitted to one spool directory cannot collide silently, and a
``collect`` against the wrong scenario list fails loudly instead of
assembling someone else's numbers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from repro.scenario.result import RunRecord
from repro.scenario.session import Session
from repro.scenario.spec import Scenario
from repro.utils.validate import check, count, load, mapping, sequence

__all__ = ["SweepJob", "jobs_for_sweep", "execute_job"]


def _scenario_digest(scenario: Mapping[str, Any]) -> str:
    """Short stable digest of a scenario dict (job-id namespace)."""
    canonical = json.dumps(scenario, sort_keys=True, default=str)
    return hashlib.sha1(canonical.encode()).hexdigest()[:8]


@dataclass(frozen=True)
class SweepJob:
    """One schedulable slice: (sweep point, repetition range).

    Attributes
    ----------
    point_index:
        Position of the scenario in the sweep's deterministic order.
    scenario:
        The point's :meth:`Scenario.to_dict` payload.
    repetitions:
        The repetition indices this job executes.  Each repetition
        derives its randomness from the seed-tree branch
        ``("rep", i)``, so any partition of the repetitions over any
        number of workers reproduces the sequential run bit-for-bit.
    """

    point_index: int
    scenario: Mapping[str, Any]
    repetitions: tuple[int, ...]

    RULES = {"point_index": count(min=0), "scenario": mapping,
             "repetitions": sequence(count(min=0), nonempty=True, distinct=True)}

    def __post_init__(self) -> None:
        check(self, self.RULES)

    @cached_property
    def job_id(self) -> str:
        """Deterministic, filesystem-safe, collision-resistant id.

        Computed once per job: the spool path asks for it at every
        step, and each computation hashes the sorted scenario JSON.
        """
        return (
            f"p{self.point_index:05d}-{_scenario_digest(self.scenario)}"
            f"-r{self.repetitions[0]:05d}"
        )

    def to_dict(self) -> dict:
        """JSON-safe dict (see :meth:`from_dict`)."""
        return {
            "point_index": self.point_index,
            "scenario": dict(self.scenario),
            "repetitions": list(self.repetitions),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepJob":
        """Rebuild a job from :meth:`to_dict` output; validates keys."""
        return load(cls, data)


def jobs_for_sweep(
    scenarios: Sequence[Scenario | Mapping[str, Any]],
    reps_per_job: int = 1,
) -> list[SweepJob]:
    """Decompose a sweep into its deterministic job list.

    One job per ``reps_per_job`` repetitions of each point, so with
    the default every repetition of every point is independently
    schedulable — repetitions of *different* points fill a worker pool
    instead of idling when a point has fewer repetitions than there
    are workers.
    """
    if reps_per_job < 1:
        raise ValueError("reps_per_job must be >= 1")
    jobs: list[SweepJob] = []
    for index, scenario in enumerate(scenarios):
        if isinstance(scenario, Scenario):
            payload = scenario.to_dict()
            repetitions = scenario.repetitions
        else:
            payload = dict(scenario)
            repetitions = int(payload.get("repetitions", 1))
        for start in range(0, repetitions, reps_per_job):
            jobs.append(
                SweepJob(
                    point_index=index,
                    scenario=payload,
                    repetitions=tuple(
                        range(start, min(start + reps_per_job, repetitions))
                    ),
                )
            )
    return jobs


def execute_job(
    job: SweepJob,
    on_repetition: Callable[[int], None] | None = None,
) -> list[RunRecord]:
    """Run one job locally: ``Scenario.from_dict`` → ``Session.run_one``.

    Returns the records in the job's repetition order.  This is the
    whole worker-side execution path — everything else in the
    subsystem is scheduling and transport.

    ``on_repetition`` is called with the in-job repetition index
    (0-based) *before* each repetition executes.  It is the worker's
    liveness hook: heartbeat the claim, check the wall-clock deadline,
    honor a shutdown signal — and it may raise to abort the job
    between repetitions (the exception propagates to the caller, which
    owns releasing the claim).
    """
    session = Session(Scenario.from_dict(job.scenario))
    records = []
    for index, repetition in enumerate(job.repetitions):
        if on_repetition is not None:
            on_repetition(index)
        records.append(session.run_one(repetition))
    return records
