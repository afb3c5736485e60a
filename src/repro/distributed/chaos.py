"""Fault injection for the spool service: the chaos harness.

The paper's robustness claim — failures "only slow down the spreading
of information" — is held against the *infrastructure* here, not just
the simulated overlay: a :class:`ChaosJobQueue` wraps the real
:class:`~repro.distributed.spool.JobQueue` and injects the faults a
shared filesystem actually produces, on a seeded (reproducible)
schedule:

* **Transient IO errors** — ``OSError`` raised from ``claim`` /
  ``complete`` / ``release`` before any side effect, exercising the
  worker's backoff-retry shield.
* **Torn result writes** — a truncated JSON written *directly* to
  ``results/`` (bypassing the fsync+rename path) followed by an
  ``OSError``, simulating a host crash mid-publish; the retry must
  overwrite it with the good payload.
* **Delayed renames** — a sleep injected ahead of the claim scan,
  widening every race window.
* **Claim races** — a shadow "worker" (recorded under a provably dead
  pid) steals a pending job ahead of the real claim, so the caller
  loses races and the dead-owner recovery machinery has to win the
  job back.

Because every injected fault lands either *before* a side effect or
in a slot the retry/recovery machinery is contractually required to
heal, a sweep run through a ``ChaosJobQueue`` must still complete
**bit-identical** to the sequential run — that is the invariant
``tests/distributed/test_chaos.py`` pins.

Usage::

    injector = FaultInjector(FaultRates(transient_error=0.2,
                                        torn_result_write=0.2,
                                        claim_race=0.2), seed=7)
    queue = ChaosJobQueue(spool_dir, injector, max_retries=10)
    run_worker(queue)          # rides out every injected fault
    assert injector.injected   # the schedule actually fired
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.distributed.spool import Claim, JobQueue, worker_identity
from repro.scenario.result import RunRecord
from repro.utils.validate import check, real

__all__ = ["FaultRates", "FaultInjector", "ChaosJobQueue", "DEAD_PID"]

#: A pid far above any real pid_max: claims recorded under it are
#: provably dead to the owner probe on every host.
DEAD_PID = 999_999_999


@dataclass(frozen=True)
class FaultRates:
    """Per-operation fault probabilities (all independent, in [0, 1])."""

    transient_error: float = 0.0  # OSError before claim/complete/release
    torn_result_write: float = 0.0  # truncated results/ JSON, then OSError
    claim_race: float = 0.0  # a shadow worker steals a pending job first
    delay: float = 0.0  # sleep before the claim scan
    delay_seconds: float = 0.02

    RULES = {**dict.fromkeys(("transient_error", "torn_result_write",
                              "claim_race", "delay"), real(min=0, max=1)),
             "delay_seconds": real(min=0)}

    def __post_init__(self) -> None:
        check(self, self.RULES)


class FaultInjector:
    """Seeded fault schedule: same seed, same faults, same order.

    Tracks what actually fired in :attr:`injected` (a ``Counter`` by
    fault kind) so tests can assert the chaos run really exercised
    each path instead of passing vacuously.
    """

    def __init__(self, rates: FaultRates, seed: int = 0):
        self.rates = rates
        self._rng = random.Random(seed)
        self.injected: Counter[str] = Counter()

    def roll(self, kind: str, rate: float) -> bool:
        """One Bernoulli draw from the schedule; records hits."""
        if rate > 0.0 and self._rng.random() < rate:
            self.injected[kind] += 1
            return True
        return False


class ChaosJobQueue(JobQueue):
    """A :class:`JobQueue` that injects faults per its injector's schedule.

    Drop-in everywhere a ``JobQueue`` is accepted (``run_worker``,
    ``collect_from_spool``, ...).  Faults are injected *before* the
    real operation's side effects (or, for torn writes, in a slot the
    retry contract must heal), so no injected failure can corrupt
    queue state beyond what the recovery machinery is specified to
    repair.
    """

    def __init__(
        self,
        root: str | Path,
        injector: FaultInjector,
        max_retries: int = 2,
    ):
        super().__init__(root, max_retries=max_retries)
        self.injector = injector

    def _maybe_transient(self, op: str) -> None:
        if self.injector.roll("transient_error", self.injector.rates.transient_error):
            raise OSError(f"chaos: injected transient {op} failure")

    def claim(self, owner: str | None = None) -> Claim | None:
        rates = self.injector.rates
        if self.injector.roll("delay", rates.delay):
            time.sleep(rates.delay_seconds)
        if self.injector.roll("claim_race", rates.claim_race):
            # A shadow sibling wins the rename race for one pending
            # job and immediately "dies" (its recorded pid never
            # existed): the caller must lose this race gracefully and
            # the dead-owner probe must win the job back later.
            super().claim(owner=worker_identity(DEAD_PID))
        self._maybe_transient("claim")
        return super().claim(owner=owner)

    def complete(
        self, claim: Claim, records: list[RunRecord], elapsed_seconds: float = 0.0
    ) -> None:
        self._maybe_transient("complete")
        rates = self.injector.rates
        if self.injector.roll("torn_result_write", rates.torn_result_write):
            # Simulate a host crash mid-publish on a filesystem with
            # no write atomicity: a truncated JSON lands at the final
            # path (no temp file, no fsync, no rename) and the
            # "crashed" call raises.  The worker's retry must
            # overwrite this with the durable, complete payload.
            payload = json.dumps(
                {"job": claim.job.to_dict(), "records": "..."}
            )
            torn = payload[: max(1, len(payload) // 3)]
            (self._dir("results") / f"{claim.job.job_id}.json").write_text(torn)
            raise OSError("chaos: crashed mid result write")
        super().complete(claim, records, elapsed_seconds=elapsed_seconds)

    def release(
        self,
        claim: Claim,
        error: str,
        permanent: bool = False,
        count_attempt: bool = True,
    ) -> bool:
        self._maybe_transient("release")
        return super().release(
            claim, error, permanent=permanent, count_attempt=count_attempt
        )
