"""File-spool job queue with atomic claim / complete / retry.

The queue is a directory — shareable over NFS or any mounted
filesystem, which is what makes the sweep service multi-host without a
broker.  State is encoded entirely in *which subdirectory a file is
in*; every transition is a single atomic ``rename`` on one
filesystem, so two workers racing for the same job cannot both win,
and a reader never sees a half-written file:

``pending/<job_id>.json``
    A submitted job nobody owns: ``{"job": <SweepJob dict>,
    "attempts": N}``.
``claimed/<job_id>.json``
    A job some worker owns.  The owner stamps the file's mtime on a
    fixed heartbeat interval while executing (see
    :class:`ClaimHeartbeat`, one thread per worker); if the worker
    dies, the stamps stop and :meth:`JobQueue.requeue_stale` moves the
    claim back to ``pending/`` with the attempt counter bumped.
``results/<job_id>.json``
    A completed job's payload: the executed repetitions as
    :meth:`~repro.scenario.result.RunRecord.to_dict` dicts plus the
    job's wall-clock seconds.
``failed/<job_id>.json``
    Dead letters: jobs that exhausted ``max_retries`` or raised a
    non-transient error.  ``collect`` reports these loudly.
``workers/<host>-<pid>.json``
    Per-worker status sidecars (jobs done, retries, current job),
    written at worker start, at each claim and once on going idle or
    exiting; purely informational — only the ``status`` CLI reads them.

Writes are crash-safe: the temp file is fsynced before the atomic
rename and the directory is fsynced after it, so a host crash cannot
leave a truncated JSON behind a rename.  A truncated file that got
there anyway (torn write from a pre-fsync era, a broken NFS client)
surfaces as :class:`SpoolCorruptionError` naming the job, never as a
raw ``JSONDecodeError``.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from repro.distributed.jobs import SweepJob
from repro.scenario.result import RunRecord
from repro.utils.exceptions import SimulationError

__all__ = [
    "Claim",
    "ClaimHeartbeat",
    "JobQueue",
    "SpoolCorruptionError",
    "with_retries",
    "worker_identity",
]

_STATES = ("pending", "claimed", "results", "failed")
_WORKERS = "workers"

T = TypeVar("T")


class SpoolCorruptionError(SimulationError):
    """A spool JSON file is truncated or unparseable.

    Carries the offending path and (when derivable) the job id, so the
    operator can delete or quarantine the file and requeue — instead
    of digging a raw ``JSONDecodeError`` out of a worker traceback.
    """


def worker_identity(pid: int | None = None) -> str:
    """The ``host:pid`` id a claim records as its owner."""
    return f"{socket.gethostname()}:{os.getpid() if pid is None else pid}"


def _owner_is_dead_locally(owner: str) -> bool:
    """True iff ``owner`` names a process on *this* host that is gone.

    Owners on other hosts (or unparseable ids) return False — only
    the heartbeat-age policy may reclaim what we cannot probe.  Note
    the probe can also be fooled the other way: a recycled pid makes a
    dead owner look alive.  That is deliberate — the probe must never
    steal live work, and :meth:`JobQueue.requeue_stale` (no heartbeat
    stamps from the impostor) recovers the claim anyway.
    """
    host, _, pid_text = owner.rpartition(":")
    if host != socket.gethostname():
        return False
    try:
        pid = int(pid_text)
    except ValueError:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        return False
    return False


@dataclass(frozen=True)
class Claim:
    """A successfully claimed job: hand it back via ``complete``/``release``."""

    job: SweepJob
    attempts: int  # completed prior attempts (0 on the first try)


def _fsync_dir(directory: Path) -> None:
    """Make a completed rename durable (no-op where dirs can't be opened)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_json_atomic(path: Path, payload: dict) -> None:
    """No reader ever observes a partial file, even across a host crash.

    The temp file is flushed and fsynced *before* the atomic rename
    and the directory entry is fsynced after it — otherwise a crash
    can reorder the metadata ahead of the data and leave a truncated
    JSON sitting behind a perfectly atomic rename.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _read_json(path: Path, job_id: str | None = None) -> dict:
    """Parse a spool JSON file; truncation surfaces cleanly, not raw."""
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        subject = f"job {job_id!r}" if job_id else "spool entry"
        raise SpoolCorruptionError(
            f"spool file for {subject} is truncated or corrupt "
            f"({path}): {exc.msg} at position {exc.pos}"
        ) from None


def with_retries(
    operation: Callable[[], T],
    attempts: int = 5,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
    rng: random.Random | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Run ``operation`` with capped exponential backoff plus full jitter.

    The retry loop exists for *transient* spool IO — an NFS server
    rebooting, an ``EIO`` blip, chaos-injected ``OSError``\\ s — so a
    worker rides out infrastructure weather instead of crashing and
    stranding its claim.  Deterministic failures (``ValueError``,
    corrupt-JSON :class:`SpoolCorruptionError`, ...) are not in
    ``retry_on`` and propagate immediately.  The delay before retry
    ``k`` is drawn uniformly from ``[0, min(max_delay, base_delay *
    2**k)]`` (full jitter, so a fleet hitting the same fault does not
    retry in lockstep).  The final attempt's exception propagates.
    """
    if attempts < 1:
        raise ValueError("with_retries needs attempts >= 1")
    rng = rng if rng is not None else random.Random()
    for attempt in range(attempts - 1):
        try:
            return operation()
        except retry_on as exc:
            if on_retry is not None:
                on_retry(attempt, exc)
            cap = min(max_delay, base_delay * (2.0 ** attempt))
            time.sleep(rng.uniform(0.0, cap))
    return operation()


class ClaimHeartbeat:
    """A worker's background mtime-stamper for whichever claim it holds.

    The worker's primary heartbeat is the hook
    :func:`~repro.distributed.jobs.execute_job` calls between
    repetitions — but a single long repetition would go silent for its
    whole duration, so this daemon thread stamps the held claim file
    every ``interval`` seconds regardless of where execution is.  One
    thread serves a worker's life: it starts on the first
    :meth:`holding` and is handed each later claim, so a job pays no
    thread start.  Stamps are plain ``utime`` touches:
    :meth:`JobQueue.requeue_stale` measures staleness as *age since the
    last stamp*, so ``stale_after`` can be a few heartbeat periods no
    matter how long jobs run.

    Transient ``OSError``\\ s while stamping are swallowed (the next
    beat retries); a *missing* claim file sets :attr:`lost` — the
    claim was requeued or completed by someone else — and stops its
    stamps.  Leaving :meth:`holding` waits out a stamp in flight: none
    lands after the claim is let go.
    """

    def __init__(self, queue: "JobQueue", interval: float):
        if interval <= 0:
            raise ValueError("heartbeat interval must be > 0")
        self._queue = queue
        self.interval = float(interval)
        self.lost = False
        self._claim: Claim | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def beat(self) -> bool:
        """Stamp the held claim once; False (and sets ``lost``) if it is gone."""
        with self._lock:
            if self._claim is not None and not self.lost:
                try:
                    self.lost = not self._queue.heartbeat(self._claim)
                except OSError:
                    pass  # transient stamp failure: try again next beat
            return not self.lost

    @contextmanager
    def holding(self, claim: Claim) -> Iterator["ClaimHeartbeat"]:
        """Stamp ``claim`` every interval until the block exits."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="claim-heartbeat", daemon=True
            )
            self._thread.start()
        with self._lock:
            self._claim, self.lost = claim, False
        try:
            yield self
        finally:
            with self._lock:
                self._claim = None

    def close(self) -> None:
        """Stop the thread (if it ever started); idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(5.0, 2 * self.interval))


class JobQueue:
    """A spool-directory job queue (see module docstring).

    Every operation is safe to call concurrently from any number of
    worker processes on any number of hosts sharing the directory.
    """

    def __init__(self, root: str | Path, max_retries: int = 2):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.root = Path(root)
        self.max_retries = max_retries
        for state in (*_STATES, _WORKERS):
            (self.root / state).mkdir(parents=True, exist_ok=True)

    def _dir(self, state: str) -> Path:
        return self.root / state

    def _ids(self, state: str) -> list[str]:
        return sorted(
            p.stem
            for p in self._dir(state).glob("*.json")
            if not p.name.startswith(".")
        )

    # -- introspection -----------------------------------------------------------

    def pending_ids(self) -> list[str]:
        return self._ids("pending")

    def claimed_ids(self) -> list[str]:
        return self._ids("claimed")

    def result_ids(self) -> list[str]:
        return self._ids("results")

    def failed_ids(self) -> list[str]:
        return self._ids("failed")

    def counts(self) -> dict[str, int]:
        """``{state: file count}`` snapshot (the ``status`` CLI line)."""
        return {state: len(self._ids(state)) for state in _STATES}

    def claim_info(self) -> list[dict]:
        """Per-claim snapshot: owner, attempts, seconds since heartbeat.

        ``heartbeat_age`` is the seconds since the claim file's last
        stamp — the number ``requeue_stale`` compares against
        ``stale_after``.  Claims that vanish mid-scan (completed or
        released) are skipped.
        """
        now = time.time()
        info = []
        for job_id in self.claimed_ids():
            path = self._dir("claimed") / f"{job_id}.json"
            try:
                age = now - path.stat().st_mtime
                payload = _read_json(path, job_id)
            except (OSError, SpoolCorruptionError):
                continue
            info.append(
                {
                    "job_id": job_id,
                    "owner": payload.get("claimed_by"),
                    "attempts": int(payload.get("attempts", 0)),
                    "heartbeat_age": age,
                }
            )
        return info

    # -- worker status sidecars --------------------------------------------------

    def _worker_path(self, identity: str) -> Path:
        return self._dir(_WORKERS) / f"{identity.replace(':', '-')}.json"

    def record_worker_status(self, identity: str, **fields) -> None:
        """Publish a worker's status sidecar (informational only).

        Writing it also refreshes the file's mtime, which is what
        ``status`` reports as the worker's heartbeat age.
        """
        payload = {"worker": identity, **fields}
        try:
            _write_json_atomic(self._worker_path(identity), payload)
        except OSError:  # status is best-effort: never kill a worker for it
            pass

    def worker_statuses(self) -> list[dict]:
        """Every worker sidecar, oldest heartbeat last, ages attached."""
        now = time.time()
        statuses = []
        for path in sorted(self._dir(_WORKERS).glob("*.json")):
            if path.name.startswith("."):
                continue
            try:
                payload = _read_json(path)
                payload["heartbeat_age"] = now - path.stat().st_mtime
            except (OSError, SpoolCorruptionError):
                continue
            statuses.append(payload)
        return sorted(statuses, key=lambda s: s["heartbeat_age"])

    # -- producer side -----------------------------------------------------------

    def submit(self, job: SweepJob) -> bool:
        """Enqueue ``job`` unless it already exists in any state.

        Returns whether a new pending entry was created — re-submitting
        an in-flight or finished sweep is a no-op, which is what makes
        ``--spool`` sweeps resumable: a restarted coordinator submits
        the same deterministic job list and only the missing work runs.
        """
        name = f"{job.job_id}.json"
        for state in _STATES:
            if (self._dir(state) / name).exists():
                return False
        _write_json_atomic(
            self._dir("pending") / name, {"job": job.to_dict(), "attempts": 0}
        )
        return True

    # -- worker side -------------------------------------------------------------

    def claim(self, owner: str | None = None) -> Claim | None:
        """Atomically take ownership of one pending job, or ``None``.

        The pending→claimed rename is the lock: when several workers
        race for the same file, exactly one rename succeeds and the
        losers move on to the next candidate.  The winner then
        rewrites its claim file with the owner's ``host:pid`` identity
        — which also refreshes the file's mtime, so
        :meth:`requeue_stale` measures age *since the claim*, not
        since submission (rename alone preserves the submit-time
        mtime).  A pending file that turns out to be unparseable is
        quarantined to ``failed/`` (a dead letter naming the
        corruption) and the scan continues.
        """
        if owner is None:
            owner = worker_identity()
        # scandir, unsorted, stop at the first win: claim() runs once
        # per job per worker, and a sorted full listing here would make
        # draining a deep queue quadratic in directory scans.  Claim
        # order carries no contract — collect reassembles sweep order.
        with os.scandir(self._dir("pending")) as entries:
            for entry in entries:
                if not entry.name.endswith(".json") or entry.name.startswith("."):
                    continue
                src = self._dir("pending") / entry.name
                dst = self._dir("claimed") / entry.name
                try:
                    # Stamp the claim time *before* the rename makes
                    # the claim visible: the file must never sit in
                    # claimed/ with its submit-time mtime, or a
                    # concurrent requeue_stale scan could steal the
                    # just-claimed job.  (If we lose the rename race
                    # after our utime, we only refreshed the winner's
                    # claim stamp — harmless.)
                    os.utime(src)
                    os.rename(src, dst)
                except FileNotFoundError:
                    continue  # lost the race for this one
                try:
                    payload = _read_json(dst, Path(entry.name).stem)
                except SpoolCorruptionError as exc:
                    # Truncated pending entry (torn write on a broken
                    # filesystem): dead-letter it loudly, keep claiming.
                    _write_json_atomic(
                        self._dir("failed") / entry.name,
                        {"job": None, "attempts": 0, "error": str(exc)},
                    )
                    dst.unlink(missing_ok=True)
                    continue
                payload["claimed_by"] = owner
                _write_json_atomic(dst, payload)
                return Claim(
                    job=SweepJob.from_dict(payload["job"]),
                    attempts=int(payload.get("attempts", 0)),
                )
        return None

    def heartbeat(self, claim: Claim | str) -> bool:
        """Stamp a held claim's file as fresh; False if the claim is gone.

        Workers call this between repetitions (through the
        ``execute_job`` hook) and from the :class:`ClaimHeartbeat`
        fallback thread.  A ``False`` return means the claim file no
        longer exists — the job was requeued by someone's staleness
        policy or completed elsewhere.  The worker may keep executing
        anyway: jobs are deterministic, ``complete`` is idempotent,
        and a duplicate result is bit-identical by construction.
        """
        job_id = claim if isinstance(claim, str) else claim.job.job_id
        try:
            os.utime(self._dir("claimed") / f"{job_id}.json")
        except FileNotFoundError:
            return False
        return True

    def complete(
        self, claim: Claim, records: list[RunRecord], elapsed_seconds: float = 0.0
    ) -> None:
        """Publish a claimed job's records and retire the claim.

        Idempotent: completing the same claim twice (a worker retrying
        after a transient publish error, or a duplicated execution
        after a staleness requeue) overwrites the result with the
        bit-identical payload and the second unlink is a no-op.
        """
        job = claim.job
        _write_json_atomic(
            self._dir("results") / f"{job.job_id}.json",
            {
                "job": job.to_dict(),
                "attempts": claim.attempts,
                "elapsed_seconds": float(elapsed_seconds),
                "records": [record.to_dict() for record in records],
            },
        )
        (self._dir("claimed") / f"{job.job_id}.json").unlink(missing_ok=True)

    def release(
        self,
        claim: Claim,
        error: str,
        permanent: bool = False,
        count_attempt: bool = True,
    ) -> bool:
        """Give a claimed job back after a failure.

        Requeues with the attempt counter bumped, or dead-letters the
        job once ``max_retries`` re-runs are exhausted.  Returns
        whether the job went back to ``pending``.

        ``permanent=True`` dead-letters immediately: the failure is
        deterministic (scenario validation, a reproducible exception)
        and re-running the same job can only fail the same way.
        ``count_attempt=False`` requeues without consuming a retry —
        the graceful-shutdown path, where the job did not fail at all,
        its worker was just asked to exit.
        """
        job = claim.job
        attempts = claim.attempts + (1 if count_attempt else 0)
        claimed = self._dir("claimed") / f"{job.job_id}.json"
        if permanent or (count_attempt and attempts > self.max_retries):
            _write_json_atomic(
                self._dir("failed") / f"{job.job_id}.json",
                {"job": job.to_dict(), "attempts": attempts, "error": error},
            )
            claimed.unlink(missing_ok=True)
            return False
        _write_json_atomic(
            self._dir("pending") / f"{job.job_id}.json",
            {"job": job.to_dict(), "attempts": attempts, "last_error": error},
        )
        claimed.unlink(missing_ok=True)
        return True

    # -- coordinator side --------------------------------------------------------

    def _requeue_claim_file(self, job_id: str, error: str) -> bool:
        path = self._dir("claimed") / f"{job_id}.json"
        try:
            payload = _read_json(path, job_id)
        except (OSError, SpoolCorruptionError):
            return False  # completed/released meanwhile, or half-written
        claim = Claim(
            job=SweepJob.from_dict(payload["job"]),
            attempts=int(payload.get("attempts", 0)),
        )
        return self.release(claim, error=error)

    def requeue_stale(
        self, max_age_seconds: float, job_ids: set[str] | None = None
    ) -> list[str]:
        """Recover jobs whose worker died mid-run — by *heartbeat* age.

        Any ``claimed/`` entry whose last heartbeat stamp is older
        than ``max_age_seconds`` goes back to ``pending`` (attempt
        counter bumped; dead-lettered past ``max_retries``).
        ``job_ids`` restricts the scan to one sweep's jobs — on a
        shared spool, never touch claims that belong to somebody
        else's sweep.  Returns the requeued ids.

        Live workers stamp their claims every ``heartbeat_interval``
        seconds (between repetitions and from a fallback timer
        thread), so a threshold of a few heartbeat periods is safe
        *regardless of job length* — only a worker that stopped
        stamping (killed, wedged, host gone) ever looks stale.  Pick
        ``max_age_seconds`` of at least 3–4 heartbeat intervals to
        ride out scheduler hiccups and NFS attribute-cache lag.
        """
        now = time.time()
        requeued: list[str] = []
        for job_id in self.claimed_ids():
            if job_ids is not None and job_id not in job_ids:
                continue
            path = self._dir("claimed") / f"{job_id}.json"
            try:
                age = now - path.stat().st_mtime
            except FileNotFoundError:
                continue  # completed or released meanwhile
            if age < max_age_seconds:
                continue
            if self._requeue_claim_file(
                job_id, error="worker lost (stale claim requeued)"
            ):
                requeued.append(job_id)
        return requeued

    def requeue_abandoned(
        self,
        owners: set[str] | None = None,
        job_ids: set[str] | None = None,
    ) -> list[str]:
        """Recover claims whose recorded owner is *known* to be dead.

        A claim is abandoned when its ``host:pid`` owner is in
        ``owners`` (processes the caller knows have exited), or names
        a process on this host that no longer exists.  Claims held by
        live or unprobeable owners (other hosts, recycled pids) are
        left alone — :meth:`requeue_stale`'s heartbeat-age policy
        covers those.  ``job_ids`` optionally restricts the scan to
        one sweep's jobs.  Returns the requeued job ids.
        """
        requeued: list[str] = []
        for job_id in self.claimed_ids():
            if job_ids is not None and job_id not in job_ids:
                continue
            path = self._dir("claimed") / f"{job_id}.json"
            try:
                payload = _read_json(path, job_id)
            except (OSError, SpoolCorruptionError):
                continue
            owner = payload.get("claimed_by")
            if owner is None:
                continue
            dead = (owners is not None and owner in owners) or (
                _owner_is_dead_locally(owner)
            )
            if dead and self._requeue_claim_file(
                job_id, error=f"worker {owner} died (claim abandoned)"
            ):
                requeued.append(job_id)
        return requeued

    def retry_failed(self) -> list[str]:
        """Give every dead-lettered job a fresh start (attempts reset).

        Dead letters otherwise block a resumed sweep forever:
        :meth:`submit` skips ids present in ``failed/`` and collect
        keeps raising.  This is deliberately an explicit operator
        action (``python -m repro.distributed requeue
        --retry-failed``) — a job that failed ``max_retries`` times
        usually needs a fixed environment first.  Returns the retried
        job ids.
        """
        retried: list[str] = []
        for job_id in self.failed_ids():
            path = self._dir("failed") / f"{job_id}.json"
            try:
                payload = _read_json(path, job_id)
            except (OSError, SpoolCorruptionError):
                continue
            if payload.get("job") is None:
                continue  # quarantined corruption: no job payload to retry
            if (self._dir("results") / f"{job_id}.json").exists():
                path.unlink(missing_ok=True)  # a late complete() won
                continue
            _write_json_atomic(
                self._dir("pending") / f"{job_id}.json",
                {
                    "job": payload["job"],
                    "attempts": 0,
                    "last_error": payload.get("error"),
                },
            )
            path.unlink(missing_ok=True)
            retried.append(job_id)
        return retried

    def load_result(self, job_id: str) -> dict:
        """One completed job's payload (job dict, records, elapsed)."""
        return _read_json(self._dir("results") / f"{job_id}.json", job_id)

    def load_failed(self, job_id: str) -> dict:
        """A dead-lettered job's payload (job dict, attempts, error)."""
        return _read_json(self._dir("failed") / f"{job_id}.json", job_id)
