"""Outside-in tracing: spans around the calls into each layer.

Nothing under ``src/`` knows about this module.  The harness builds
the engines through their public constructors and hands them *proxies*
— a :class:`KernelBackend`, a :class:`ViewProvider`, a
:class:`JobQueue`, a shard engine and a shard exchange that forward
every call to the real object and record a span
``{id, name, start, end, parent}`` around it.  Spans stay in memory
until the run ends (:meth:`Tracer.dump`); a layer's *self* time is its
span minus the part its child spans cover (:func:`summarize`).

Proxies only time and count: they pass arguments and results through
untouched, so a traced run simulates exactly what the untraced run
does (the harness asserts the two records are bit-identical).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.kernels import KernelBackend
from repro.distributed import JobQueue
from repro.topology.provider import ViewProvider

__all__ = [
    "Tracer",
    "summarize",
    "TracedBackend",
    "TracedViews",
    "TracedQueue",
    "TracedExchange",
    "TracedShardEngine",
    "CycleObserver",
]


class Tracer:
    """In-memory span and counter store shared by one traced repetition.

    Each thread keeps its own stack of open spans, so the two shard
    threads of ``sharded_pair`` nest their kernel calls under their own
    ``sharding.*`` spans; ``list.append`` and ``next(count)`` are atomic
    under the interpreter lock, which is all the sharing there is.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a span called ``name`` on this thread; yields its record."""
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            **attrs,
        }
        stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def call(self, name: str, fn, *args, _attrs: dict | None = None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name, **(_attrs or {})):
            return fn(*args, **kwargs)

    def add(self, name: str, start: float, end: float, parent: int | None) -> int:
        """Record a span whose ends were observed, not bracketed."""
        span_id = next(self._ids)
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent}
        )
        return span_id

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self, path: Path) -> None:
        """Write every span and counter to ``path`` (end of the run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``busy_s`` (Σ duration), ``calls``, ``self_s``.

    ``self_s`` subtracts each span's direct children, so it is the time
    spent in the layer itself rather than in the layers it called.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        agg = out.setdefault(span["name"], {"busy_s": 0.0, "calls": 0, "self_s": 0.0})
        agg["busy_s"] += duration
        agg["calls"] += 1
        agg["self_s"] += duration - child_time.get(span["id"], 0.0)
    return out


def _forward(span_name: str, method_name: str):
    """A proxy method: ``inner.<method_name>(...)`` inside a span."""

    def method(self, *args, **kwargs):
        return self._tracer.call(
            span_name, getattr(self._inner, method_name), *args, **kwargs
        )

    method.__name__ = method_name
    return method


class TracedBackend(KernelBackend):
    """A :class:`KernelBackend` that times another one's kernels."""

    def __init__(self, inner: KernelBackend, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    fused_pso_update = _forward("kernels.fused_pso_update", "fused_pso_update")
    pbest_fold = _forward("kernels.pbest_fold", "pbest_fold")
    merge_candidates = _forward("kernels.merge_candidates", "merge_candidates")

    def batch_eval(self, functions, node_group, live, pos, out=None, ctx=None):
        self._tracer.count("kernels.batch_eval.points", pos.shape[0] * pos.shape[1])
        return self._tracer.call(
            "kernels.batch_eval", self._inner.batch_eval,
            functions, node_group, live, pos, out=out, ctx=ctx,
        )

    def scatter_min_fold(self, *args):
        adopted = self._tracer.call(
            "kernels.scatter_min_fold", self._inner.scatter_min_fold, *args
        )
        self._tracer.count("kernels.scatter_min_fold.adoptions", adopted)
        return adopted


class TracedViews(ViewProvider):
    """A :class:`ViewProvider` that times another one's overlay calls.

    Everything the engines read besides the four timed calls
    (``exchanges``, ``failed_exchanges``, ``view_counts`` …) falls
    through to the wrapped provider.
    """

    def __init__(self, inner: ViewProvider, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    begin_cycle = _forward("topology.begin_cycle", "begin_cycle")
    gossip_targets = _forward("topology.gossip_targets", "gossip_targets")
    on_join = _forward("topology.on_join", "on_join")
    on_crash = _forward("topology.on_crash", "on_crash")

    def attach_kernels(self, backend, workspace) -> None:
        self._inner.attach_kernels(backend, workspace)

    def ensure_capacity(self, n_ids: int) -> None:
        self._inner.ensure_capacity(n_ids)

    def known_peers(self, node_id: int) -> list[int]:
        return self._inner.known_peers(node_id)

    def neighbor_matrix(self):
        return self._inner.neighbor_matrix()


class CycleObserver:
    """Engine observer (``extra_observers=``) that turns cycles into spans.

    An observer only sees the *end* of each cycle, so a cycle span runs
    from the previous cycle's end (the first one: from the first traced
    call after engine construction) to now, and the kernel / topology
    spans recorded in between are re-parented under it.  The stretch
    before the first cycle is the ``fastpath.build`` span.  The engine
    stops calling observers once one of them stops the run, so the
    cycle in which the budget runs out is closed by :meth:`close`.
    """

    def __init__(self, tracer: Tracer, run_span: dict):
        self._tracer = tracer
        self._run = run_span
        self._mark = len(tracer.spans)
        self._last_end: float | None = None
        self.live_node_cycles = 0

    def observe(self, engine) -> None:
        self._cycle_ended(time.perf_counter())
        # Churn runs before the PSO phase, so the population seen here
        # is the one that spent this cycle's evaluations.
        self.live_node_cycles += engine.live_count

    def close(self, end: float) -> None:
        """Span the cycle no observer call ended (the stopping one)."""
        if self._fresh():
            self._cycle_ended(end)

    def _fresh(self) -> list[dict]:
        """Layer spans recorded under the run since the last cycle ended."""
        run_id = self._run["id"]
        return [
            s for s in self._tracer.spans[self._mark:] if s["parent"] == run_id
        ]

    def _cycle_ended(self, now: float) -> None:
        tracer = self._tracer
        run_id = self._run["id"]
        fresh = self._fresh()
        if self._last_end is None:
            start = min((s["start"] for s in fresh), default=now)
            tracer.add("fastpath.build", self._run["start"], start, run_id)
        else:
            start = self._last_end
        cycle_id = tracer.add("fastpath.cycle", start, now, run_id)
        for span in fresh:
            span["parent"] = cycle_id
        self._mark = len(tracer.spans)
        self._last_end = now


class TracedQueue(JobQueue):
    """A :class:`JobQueue` that times its own spool operations.

    ``bytes_written`` is computed from the sizes of the files each
    operation leaves behind; ``jobs.execute`` is the wall time the
    worker itself reports to :meth:`complete`.
    """

    def __init__(self, root, tracer: Tracer):
        super().__init__(root)
        self._tracer = tracer

    def _wrote(self, state: str, job_id: str) -> None:
        self._tracer.count(
            "spool.bytes_written",
            (self.root / state / f"{job_id}.json").stat().st_size,
        )

    def submit(self, job):
        created = self._tracer.call("spool.submit", super().submit, job)
        self._wrote("pending", job.job_id)
        return created

    def claim(self, owner=None):
        claim = self._tracer.call("spool.claim", super().claim, owner)
        if claim is not None:
            self._wrote("claimed", claim.job.job_id)
        return claim

    def heartbeat(self, claim):
        return self._tracer.call("spool.heartbeat", super().heartbeat, claim)

    def complete(self, claim, records, elapsed_seconds=0.0):
        self._tracer.count("jobs.execute.busy_s", elapsed_seconds)
        self._tracer.count("jobs.execute.calls")
        self._tracer.call(
            "spool.complete", super().complete, claim, records,
            elapsed_seconds=elapsed_seconds,
        )
        self._wrote("results", claim.job.job_id)

    def record_worker_status(self, identity, **fields):
        self._tracer.call(
            "spool.worker_status", super().record_worker_status, identity, **fields
        )

    def load_result(self, job_id):
        return self._tracer.call("spool.load_result", super().load_result, job_id)


class TracedExchange:
    """Shard exchange wrapper: post cost, barrier wait, computed bytes."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def post(self, window, leg, src, dst, payload) -> None:
        self._tracer.count("sharding.exchange.posts")
        self._tracer.count(
            "sharding.exchange.payload_bytes",
            sum(getattr(value, "nbytes", 0) for value in payload.values()),
        )
        self._tracer.call(
            "sharding.exchange.post", self._inner.post,
            window, leg, src, dst, payload, _attrs={"shard": src},
        )

    def collect(self, window, leg, dst, srcs):
        return self._tracer.call(
            "sharding.exchange.collect", self._inner.collect,
            window, leg, dst, srcs, _attrs={"shard": dst},
        )

    def abort(self, reason: str) -> None:
        self._inner.abort(reason)


class TracedShardEngine:
    """Shard engine proxy for :func:`run_shard`: one span per window leg."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def _leg(self, name: str, *args):
        return self._tracer.call(
            f"sharding.{name}", getattr(self._inner, name), *args,
            _attrs={"shard": self._inner.shard},
        )

    def begin_cycle(self):
        return self._leg("begin_cycle")

    def exchange_apply(self, incoming):
        return self._leg("exchange_apply", incoming)

    def finalize_cycle(self, incoming):
        return self._leg("finalize_cycle", incoming)

    def resolve(self, statuses):
        return self._leg("resolve", statuses)
