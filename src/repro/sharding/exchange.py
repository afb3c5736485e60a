"""Cross-shard message fabric: windowed, barriered, replay-friendly.

A shard cycle exchanges messages in *legs* (view requests → replies →
status); each ``(window, leg, src → dst)`` edge carries one payload — a
flat dict of numpy arrays (scalars ride as 0-d arrays).  Collecting a
leg blocks until every peer's payload for that window has arrived:
that blocking collect *is* the shard barrier.

Three implementations share the contract:

* :class:`InProcessExchange` — a condition-variable mailbox inside one
  process (collect pops, memory stays bounded): the contract's
  reference, and the receiving half of the next.
* :class:`PipeExchange` — one shard process's end of a full mesh of
  pipes; reader threads drain each peer's posts into a mailbox.
* :class:`SpoolExchange` — one file per edge under a spool directory,
  written atomically (tmp + rename) and **idempotently**: a payload
  that already exists is never rewritten.  Files persist for the whole
  run, which is the crash-recovery mechanism — a shard worker is
  deterministic given its incoming payloads, so a respawned worker
  replays from window 0, re-reading history at disk speed and
  re-posting no-ops, until it catches up with its live peers (see
  :mod:`repro.sharding.coordinator`).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ShardExchangeError",
    "ShardExchangeAborted",
    "ShardExchangeTimeout",
    "InProcessExchange",
    "PipeExchange",
    "SpoolExchange",
]


class ShardExchangeError(RuntimeError):
    """Base class of exchange failures."""


class ShardExchangeAborted(ShardExchangeError):
    """A peer shard failed; the barrier can never complete."""


class ShardExchangeTimeout(ShardExchangeError):
    """A barrier leg did not complete within the timeout."""


Payload = Mapping[str, np.ndarray]


def _freeze(payload: Payload) -> dict[str, np.ndarray]:
    return {key: np.asarray(value) for key, value in payload.items()}


class InProcessExchange:
    """Thread-safe mailbox keyed by ``(window, leg, src, dst)``."""

    def __init__(self, shards: int, timeout: float = 60.0):
        self.shards = shards
        self.timeout = timeout
        self._box: dict[tuple[int, int, int, int], dict[str, np.ndarray]] = {}
        self._cond = threading.Condition()
        self._abort_reason: str | None = None

    def post(self, window: int, leg: int, src: int, dst: int,
             payload: Payload) -> None:
        with self._cond:
            self._box[(window, leg, src, dst)] = _freeze(payload)
            self._cond.notify_all()

    def collect(self, window: int, leg: int, dst: int,
                srcs: Iterable[int]) -> dict[int, dict[str, np.ndarray]]:
        """Pop every ``src → dst`` payload of the leg (blocking barrier)."""
        wanted = list(srcs)
        deadline = time.monotonic() + self.timeout
        with self._cond:
            while True:
                keys = [(window, leg, src, dst) for src in wanted]
                if all(key in self._box for key in keys):
                    return {
                        src: self._box.pop(key)
                        for src, key in zip(wanted, keys)
                    }
                # Only a leg that can no longer complete is aborted: a
                # peer that posted its last payload and hung up is done.
                if self._abort_reason is not None:
                    raise ShardExchangeAborted(self._abort_reason)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardExchangeTimeout(
                        f"shard {dst} window {window} leg {leg}: peers "
                        f"{wanted} incomplete after {self.timeout:.0f}s"
                    )
                self._cond.wait(timeout=remaining)

    def abort(self, reason: str) -> None:
        """Fail every collect, pending or future, of an incomplete leg."""
        with self._cond:
            self._abort_reason = reason
            self._cond.notify_all()


class PipeExchange:
    """One worker's end of a full mesh of pipes between shard processes.

    ``conns[peer]`` is shard ``me``'s end of the duplex
    :func:`multiprocessing.Pipe` it shares with ``peer``.  ``post``
    sends on it; one daemon reader thread per peer drains the
    connection into that peer's :class:`InProcessExchange` mailbox,
    and ``collect`` asks each wanted peer's mailbox in turn.  Without
    the readers two shards that post at each other in the same leg
    would both block on a full pipe buffer (64 kB; one boundary payload
    is several times that).  A connection that ends aborts its own
    mailbox only — a peer that finished early owes nothing more, one
    that failed or was killed does — and ``abort`` closes this worker's
    ends, which is how its peers see that.
    """

    def __init__(self, shards: int, me: int, conns: Mapping[int, Connection]):
        self.shards = shards
        self.me = me
        self._conns = conns
        self._inbox = {peer: InProcessExchange(shards) for peer in conns}
        for peer in conns:
            threading.Thread(
                target=self._drain, args=(peer,), daemon=True,
                name=f"shard-{me}-from-{peer}",
            ).start()

    def _drain(self, peer: int) -> None:
        try:
            while True:
                window, leg, payload = self._conns[peer].recv()
                self._inbox[peer].post(window, leg, peer, self.me, payload)
        except (EOFError, OSError):
            self._inbox[peer].abort(f"shard {peer} hung up")

    def post(self, window: int, leg: int, src: int, dst: int,
             payload: Payload) -> None:
        try:
            self._conns[dst].send((window, leg, payload))
        except OSError as exc:
            raise ShardExchangeAborted(f"shard {dst} hung up") from exc

    def collect(self, window: int, leg: int, dst: int,
                srcs: Iterable[int]) -> dict[int, dict[str, np.ndarray]]:
        return {
            src: self._inbox[src].collect(window, leg, dst, [src])[src]
            for src in srcs
        }

    def abort(self, reason: str) -> None:
        """Fail local collects and hang up on every peer."""
        for peer, conn in self._conns.items():
            self._inbox[peer].abort(reason)
            conn.close()


class SpoolExchange:
    """File-per-edge exchange over a shared directory.

    Layout: ``<root>/w000012-l1-s00d01.npz`` — window 12, leg 1, shard
    0 → shard 1.  Posts are atomic (``os.replace``) and idempotent;
    collects poll for the peers' files.  Nothing is ever deleted: the
    directory is the run's replayable message log.
    """

    def __init__(self, root: str | Path, shards: int,
                 poll: float = 0.02, timeout: float = 120.0):
        self.root = Path(root)
        self.shards = shards
        self.poll = poll
        self.timeout = timeout
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, window: int, leg: int, src: int, dst: int) -> Path:
        return self.root / f"w{window:06d}-l{leg}-s{src:02d}d{dst:02d}.npz"

    def post(self, window: int, leg: int, src: int, dst: int,
             payload: Payload) -> None:
        path = self._path(window, leg, src, dst)
        if path.exists():
            # Replay after a crash: the payload is deterministic, so
            # the existing file is byte-equivalent — skipping the
            # write keeps posts race-free against a concurrent reader.
            return
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **_freeze(payload))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def collect(self, window: int, leg: int, dst: int,
                srcs: Iterable[int]) -> dict[int, dict[str, np.ndarray]]:
        wanted = list(srcs)
        deadline = time.monotonic() + self.timeout
        paths = {src: self._path(window, leg, src, dst) for src in wanted}
        while True:
            missing = [src for src, path in paths.items()
                       if not path.exists()]
            if not missing:
                break
            if time.monotonic() >= deadline:
                raise ShardExchangeTimeout(
                    f"shard {dst} window {window} leg {leg}: no payload "
                    f"from shards {missing} after {self.timeout:.0f}s"
                )
            time.sleep(self.poll)
        out: dict[int, dict[str, np.ndarray]] = {}
        for src, path in paths.items():
            with np.load(path) as npz:
                out[src] = {key: npz[key] for key in npz.files}
        return out

    def abort(self, reason: str) -> None:
        """No-op: process death is the spool mode's abort signal."""
