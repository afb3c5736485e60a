"""Byte pins of NEWSCAST overlays, captured before the packed-view layout.

Each driver below ran on the parent of the change that made a view one
packed ``int64`` row; the sha256 of the decoded ``(ids, ts)`` matrices
(``-1`` / ``-1`` in empty slots) plus the two exchange counters is what
that two-matrix code produced.  A storage or kernel change that moves a
single descriptor, stamp or slot fails here before any engine-level
digest does.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.kernels import Workspace, get_backend
from repro.sharding.plan import ShardPlan
from repro.sharding.views import ShardNewscastViews
from repro.topology.array_views import NewscastArrayViews, unpack_views


@pytest.fixture
def backend():
    return get_backend("numpy")


def digest(providers, rows=None) -> str:
    sha = hashlib.sha256()
    for views in providers:
        ids, ts = unpack_views(views._keys[:rows])
        for part in (ids, ts, [views.exchanges, views.failed_exchanges]):
            sha.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
    return sha.hexdigest()


def drive_cycles(n: int, contacts: int | None, backend) -> str:
    """Cycle-driven overlay: crash wave, growth, two joins.

    ``n = 512`` takes ``bootstrap``'s exactly-distinct branch (with few
    contacts, so the first cycles merge short rows), ``n = 3000`` the
    draw-with-replacement branch that dedups through the merge kernel.
    """
    views = NewscastArrayViews(n, 20, np.random.default_rng(2100 + n))
    views.attach_kernels(backend, Workspace())
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
    return digest([views], n + 2)


def drive_cohorts(backend) -> str:
    """Cohort form: several initiator subsets at one integer ``now``.

    Self stamps are redrawn per call, so a node's descriptor from an
    earlier call of the same tick is often fresher than its new one —
    own-id deletion must compare ids, not the fresh key.
    """
    n = 300
    rng = np.random.default_rng(4242)
    views = NewscastArrayViews(n, 8, np.random.default_rng(4243))
    views.attach_kernels(backend, Workspace())
    live = np.arange(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    views.bootstrap(live, contacts=3)
    for now in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.3, 1.6, 2.5):
        cohort = live[rng.random(n) < 0.4]
        cohort = cohort[views.view_counts(cohort) > 0]
        views.begin_cycle(live, alive, now, initiators=cohort)
    return digest([views])


def drive_shards(backend) -> str:
    """Two shards, boundary requests and replies, contended rows."""
    plan = ShardPlan(nodes=90, shards=2)
    shards = [
        ShardNewscastViews(plan, s, 6, np.random.default_rng([77, s]))
        for s in range(2)
    ]
    for views in shards:
        views._backend, views._workspace = backend, Workspace()
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
    return digest(shards)


DRIVERS = {
    "cycles-512": lambda backend: drive_cycles(512, 4, backend),
    "cycles-3000": lambda backend: drive_cycles(3000, None, backend),
    "cohorts": drive_cohorts,
    "shards": drive_shards,
}

PINS = {
    "cycles-512": (
        "0f29c03520176ec6aea87ec6955cf1ed27cd5d2b34cebf309d4e72ac540382a9"
    ),
    "cycles-3000": (
        "ced9c6bed67516de38b1d80744e09072d3ad2d3fba6e0bd583d92795ff984ffa"
    ),
    "cohorts": (
        "386ca4480b3a19363da6eeacb14c53ebe1364b7c4738d579a48ea6efddbf58e0"
    ),
    "shards": (
        "eb0a0556ab002699d5c1e490df03358a03bf3bec84ba10115eaee13b3463c7e5"
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_overlay_pin(name, backend):
    assert DRIVERS[name](backend) == PINS[name]
