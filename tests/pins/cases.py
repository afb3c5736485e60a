"""The pin corpus: every bit-identity pin of the repo as one named row.

A row is a value whose :meth:`digest` is a sha256 hex string;
``pins.json`` holds the committed digest of every row, and
``test_pins.py`` recomputes each one.  The name's first segment is the
row kind:

* ``record/…`` — a :class:`Scenario` run under an
  :class:`ExecutionPolicy` at one repetition, digested as the sorted-key
  strict JSON of its ``RunRecord.to_dict()``.  A record pin covers every
  field a run reports (best value, budget, cycles, message tallies,
  churn counts, history, problem-layer metrics), not one float.
* ``overlay/…`` — the NEWSCAST view matrices and exchange counters
  after a scripted driver (the engine-level digests see an overlay only
  through the optimizer; these see every descriptor, stamp and slot).
* ``dump/<exp>/<engine>`` — the stdout of ``python -m repro.experiments
  <exp> --scale smoke --seed 42 --engine <engine> --dump-scenarios``:
  the points an experiment runs.
* ``jobs/…`` — the job ids a spool sweep files its work under, so a
  spool written by older code stays resumable.

Rows are ported with the inputs of the pins they replace; where those
drove an engine directly, the row is the same run through ``Session``.
A pin moves only on purpose: ``python -m tests.pins --regen NAME``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.kernels import Workspace, get_backend
from repro.distributed.jobs import jobs_for_sweep
from repro.experiments.__main__ import main as experiments_main
from repro.functions.problem import DynamicsSpec
from repro.scenario import ExecutionPolicy, Scenario, Session, TransportSpec
from repro.sharding.plan import ShardPlan
from repro.sharding.views import ShardNewscastViews
from repro.simulator.adversary import AdversarySpec
from repro.topology.array_views import NewscastArrayViews, unpack_views
from repro.utils.config import ChurnConfig, CoordinationConfig

PINS_PATH = Path(__file__).with_name("pins.json")
ENGINES = ("reference", "fast")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text())


def save_pins(pins: dict[str, str]) -> None:
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# -- row kinds ------------------------------------------------------------------


@dataclass(frozen=True)
class Record:
    scenario: Scenario
    repetition: int = 0
    policy: ExecutionPolicy = ExecutionPolicy()

    def digest(self) -> str:
        session = Session(self.scenario)
        if self.policy == ExecutionPolicy():
            record = session.run_one(self.repetition)
        else:
            record = session.run(policy=self.policy).records[self.repetition]
        return sha256(json.dumps(record.to_dict(), sort_keys=True, allow_nan=False))


@dataclass(frozen=True)
class Overlay:
    driver: Callable[[], str]

    def digest(self) -> str:
        return self.driver()


@dataclass(frozen=True)
class Dump:
    experiment: str
    engine: str

    def digest(self) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = experiments_main([self.experiment, "--scale", "smoke", "--seed", "42",
                         "--engine", self.engine, "--dump-scenarios"])
        assert code == 0
        return sha256(out.getvalue())


@dataclass(frozen=True)
class Jobs:
    scenario: Scenario

    def digest(self) -> str:
        return sha256("\n".join(job.job_id for job in jobs_for_sweep([self.scenario])))


# -- record rows ----------------------------------------------------------------

UNREACHABLE = 10**12


def scenario(**fields) -> Scenario:
    return Scenario(**{"function": "sphere", **fields})


def fast32(**fields) -> Scenario:
    """The fast engine at n = 32, k = r = 4: 20 cycles."""
    return scenario(nodes=32, particles_per_node=4, total_evaluations=2560,
                    gossip_cycle=4, seed=7, engine="fast", **fields)


def n2600(**fields) -> Scenario:
    """The fast engine at n = 2600, k = r = 4: a budget of 4 cycles."""
    return scenario(**{"nodes": 2600, "particles_per_node": 4, "gossip_cycle": 4,
                       "total_evaluations": 2600 * 4 * 4, "seed": 3,
                       "engine": "fast", **fields})


def lossy_cohorts(mode: str, hostile: bool) -> Scenario:
    """Cohort event engine, n = 48 under 5 % loss and Poisson churn."""
    return scenario(
        nodes=48, total_evaluations=48 * 800, seed=9, engine="event",
        event_backend="fast", horizon=5000.0,
        transport=TransportSpec(loss_rate=0.05),
        churn=ChurnConfig(crash_rate=0.02, join_rate=0.02, min_population=8),
        coordination=CoordinationConfig(mode=mode),
        adversary=(AdversarySpec(0.25, "false-best", defense=True) if hostile
                   else AdversarySpec()),
    )


def event_oracle(**fields) -> Scenario:
    """The per-node event runtime, n = 12."""
    return scenario(nodes=12, total_evaluations=12 * 400, seed=9,
                    engine="event", horizon=400.0, record_history=True, **fields)


class CrashEnds:
    """Observer: ``crash_node`` on the first, a middle and the last live id."""

    def observe(self, engine) -> None:
        pick = {3: 0, 5: engine.live_count // 2, 7: engine.live_count - 1}
        if engine.cycle in pick:
            engine.crash_node(int(engine.live_ids()[pick[engine.cycle]]))


def churned(**fields) -> Scenario:
    return Scenario(**{
        "function": "rastrigin", "nodes": 40, "particles_per_node": 4,
        "gossip_cycle": 4, "total_evaluations": UNREACHABLE, "max_cycles": 25,
        "engine": "fast", "seed": 5, "record_history": True,
        "churn": ChurnConfig(crash_rate=0.06, join_rate=0.06, min_population=8),
        **fields,
    })


def churned_event(**fields) -> Scenario:
    return scenario(**{
        "nodes": 32, "particles_per_node": 4, "gossip_cycle": 4,
        "total_evaluations": UNREACHABLE, "engine": "event",
        "event_backend": "fast", "horizon": 150.0, "seed": 5,
        "record_history": True,
        "churn": ChurnConfig(crash_rate=0.1, join_rate=0.1, min_population=8),
        **fields,
    })


def churned_hostile(rng_mode: str) -> Scenario:
    """A small ``churn_hostile``: shifts plus a defended false-best adversary."""
    return churned(
        function="sphere", nodes=64, particles_per_node=8, gossip_cycle=8,
        max_cycles=12, rng_mode=rng_mode,
        churn=ChurnConfig(crash_rate=0.05, join_rate=0.05),
        dynamics=DynamicsSpec(kind="shift", period=4, severity=1.0),
        adversary=AdversarySpec(fraction=0.1, behavior="false-best", defense=True),
    )


def reference(**fields) -> Scenario:
    """The cycle-driven per-node oracle: n = 16, k = r = 8, 40 cycles."""
    return Scenario(**{
        "function": "rastrigin", "nodes": 16, "total_evaluations": 16 * 8 * 40,
        "seed": 21, "record_history": True, **fields,
    })


RECORDS = {
    # The fast engine's strict and batched draw regimes, repetition 1.
    **{f"fast-strict-{topology}": Record(fast32(topology=topology), 1)
       for topology in ("newscast", "cyclon", "ring", "oracle")},
    "fast-batched-newscast": Record(fast32(rng_mode="batched"), 1),
    "fast-strict-churn": Record(scenario(
        function="rastrigin", nodes=24, particles_per_node=4,
        total_evaluations=1440, gossip_cycle=4, seed=11, engine="fast",
        churn=ChurnConfig(crash_rate=0.02, join_rate=0.02, min_population=4),
    )),
    "fast-strict-r-not-k": Record(scenario(
        nodes=16, particles_per_node=6, total_evaluations=960,
        gossip_cycle=3, seed=3, engine="fast",
    )),
    # n = 2600 reaches the large-population paths: the replacement
    # bootstrap, NEWSCAST rounds of more than 512 pairs, several draw
    # blocks with a short last one and, on two shards, a shard boundary
    # (id 1300) inside a draw block.
    **{f"fast-{mode}-newscast-n2600": Record(
        n2600(function="rastrigin", seed=3, rng_mode=mode))
       for mode in ("strict", "batched")},
    **{f"sharded{suffix}-n2600": Record(
        n2600(rng_mode=mode), policy=ExecutionPolicy(shards=2))
       for suffix, mode in (("", "strict"), ("-batched", "batched"))},
    # The cohort engine's anti-entropy exchange, each mode honest and
    # under a defended false-best adversary.
    **{f"event-fast-{mode}{'-false-best' if hostile else ''}":
       Record(lossy_cohorts(mode, hostile), 1)
       for mode in ("push", "push-pull", "pull") for hostile in (False, True)},
    # Two shard processes over pipes.
    **{f"sharded-{mode}": Record(
        scenario(nodes=64, total_evaluations=64 * 8 * 20, max_cycles=60,
                 engine="fast", seed=11,
                 coordination=CoordinationConfig(mode=mode)),
        policy=ExecutionPolicy(shards=2))
       for mode in ("push-pull", "pull")},
    # The per-node event runtime.
    "event-oracle-static": Record(event_oracle(), 1),
    "event-oracle-shift-false-best-churn-loss": Record(event_oracle(
        transport=TransportSpec(loss_rate=0.1),
        churn=ChurnConfig(crash_rate=0.02, join_rate=0.05, min_population=4),
        dynamics=DynamicsSpec(kind="shift", severity=0.1, period=40.0),
        adversary=AdversarySpec(0.25, "false-best", defense=True),
    ), 1),
    # Churn on the SoA engines: crashes swap-remove rows, joins append.
    "churn-fast-strict": Record(churned(rng_mode="strict")),
    "churn-fast-batched": Record(churned(rng_mode="batched")),
    "churn-fast-r-not-k": Record(churned(gossip_cycle=3, rng_mode="strict")),
    "churn-event-fast-strict": Record(churned_event(rng_mode="strict")),
    "churn-event-fast-batched": Record(churned_event(rng_mode="batched")),
    "churn-event-fast-r-not-k": Record(
        churned_event(gossip_cycle=3, rng_mode="batched")),
    "churn-hostile-batched": Record(churned_hostile("batched")),
    "churn-hostile-strict": Record(churned_hostile("strict")),
    "churn-crash-node": Record(churned(
        observers=(CrashEnds(),),
        churn=ChurnConfig(crash_rate=0.03, join_rate=0.06, min_population=8),
    )),
    # The cycle-driven oracle every fast path is measured against.
    "reference-newscast": Record(reference()),
    "reference-r-not-k": Record(reference(particles_per_node=6, gossip_cycle=3,
                                          total_evaluations=16 * 6 * 40)),
    "reference-cyclon": Record(reference(topology="cyclon")),
    "reference-ring": Record(reference(topology="ring")),
    "reference-churn": Record(reference(
        churn=ChurnConfig(0.05, 0.05, min_population=4))),
}


# -- overlay rows ---------------------------------------------------------------


def overlay_digest(providers, rows=None) -> str:
    """sha256 of each provider's decoded ``(ids, ts)`` matrices (``-1`` in
    empty slots) plus its two exchange counters."""
    sha = hashlib.sha256()
    for views in providers:
        ids, ts = unpack_views(views._keys[:rows])
        for part in (ids, ts, [views.exchanges, views.failed_exchanges]):
            sha.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
    return sha.hexdigest()


def drive_cycles(n: int, contacts: int | None) -> str:
    """Cycle-driven overlay: crash wave, growth, two joins.

    ``n = 512`` takes ``bootstrap``'s exactly-distinct branch (with few
    contacts, so the first cycles merge short rows), ``n = 3000`` the
    draw-with-replacement branch that dedups through the merge kernel.
    """
    views = NewscastArrayViews(n, 20, np.random.default_rng(2100 + n))
    views.attach_kernels(get_backend("numpy"), Workspace())
    alive = np.ones(n + 2, dtype=bool)
    alive[n:] = False
    live = np.flatnonzero(alive)
    views.bootstrap(live, contacts)
    for cycle in range(4):
        views.begin_cycle(live, alive, float(cycle))
    # No failure detector: the dead stay in the survivors' views.
    alive[:n:7] = False
    live = np.flatnonzero(alive)
    for cycle in range(4, 7):
        views.begin_cycle(live, alive, float(cycle))
    assert views.failed_exchanges > 0
    views.ensure_capacity(n + 2)
    for joiner in (n, n + 1):
        alive[joiner] = True
        live = np.flatnonzero(alive)
        views.on_join(joiner, live, 7.0)
    for cycle in range(7, 10):
        views.begin_cycle(live, alive, float(cycle))
    return overlay_digest([views], n + 2)


def drive_cohorts() -> str:
    """Cohort form: several initiator subsets at one integer ``now``.

    Self stamps are redrawn per call, so a node's descriptor from an
    earlier call of the same tick is often fresher than its new one —
    own-id deletion must compare ids, not the fresh key.
    """
    n = 300
    rng = np.random.default_rng(4242)
    views = NewscastArrayViews(n, 8, np.random.default_rng(4243))
    views.attach_kernels(get_backend("numpy"), Workspace())
    live = np.arange(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    views.bootstrap(live, contacts=3)
    for now in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.3, 1.6, 2.5):
        cohort = live[rng.random(n) < 0.4]
        cohort = cohort[views.view_counts(cohort) > 0]
        views.begin_cycle(live, alive, now, initiators=cohort)
    return overlay_digest([views])


def drive_shards() -> str:
    """Two shards, boundary requests and replies, contended rows."""
    plan = ShardPlan(nodes=90, shards=2)
    shards = [
        ShardNewscastViews(plan, s, 6, np.random.default_rng([77, s]))
        for s in range(2)
    ]
    for views in shards:
        views._backend, views._workspace = get_backend("numpy"), Workspace()
    contended = 0
    for cycle in range(6):
        requests = [views.begin_cycle(cycle) for views in shards]
        for by_dst in requests:
            for payload in by_dst.values():
                _, hits = np.unique(payload["vq_tgt"], return_counts=True)
                contended += int((hits > 1).sum())
        replies = [
            shards[dst].apply_requests(
                {src: requests[src][dst] for src in range(2)
                 if dst in requests[src]}
            )
            for dst in range(2)
        ]
        for src in range(2):
            shards[src].apply_replies(
                {dst: replies[dst][src] for dst in range(2)
                 if src in replies[dst]}
            )
    assert contended > 0  # several requests hit one row in one window
    return overlay_digest(shards)


OVERLAYS = {
    "cycles-512": Overlay(lambda: drive_cycles(512, 4)),
    "cycles-3000": Overlay(lambda: drive_cycles(3000, None)),
    "cohorts": Overlay(drive_cohorts),
    "shards": Overlay(drive_shards),
}


# -- the table --------------------------------------------------------------------


CASES = {
    **{f"record/{name}": row for name, row in RECORDS.items()},
    **{f"overlay/{name}": row for name, row in OVERLAYS.items()},
    **{f"dump/{exp}/{engine}": Dump(exp, engine)
       for exp in ("exp1", "exp2", "exp3", "exp4", "exp5", "exp6")
       for engine in ENGINES},
    # The sweep of tests/distributed/test_jobs.py: three repetitions.
    **{f"jobs/{engine}": Jobs(scenario(
        nodes=4, particles_per_node=4, total_evaluations=400,
        gossip_cycle=4, repetitions=3, seed=7, engine=engine))
       for engine in ENGINES},
}
