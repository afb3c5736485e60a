"""Every engine reaches the kernels through its ``KernelBackend`` instance.

The instance is the one proxy point for the kernels: ``bench/tracing``'s
``TracedBackend`` subclasses :class:`KernelBackend` with its own
``__init__`` (no ``super()`` call), forwards each kernel to the NumPy
instance, and is handed to ``run_single_fast``, to ``ShardEngine`` and
to ``CohortEventEngine.backend`` + ``provider.attach_kernels``.  Its
per-layer kernel numbers are real only while the engines call the
kernels through that instance; :class:`Counting` is built the same way
and checks that they do, and that proxying changes no record.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core.eventpath import CohortEventEngine
from repro.core.fastpath import run_single_fast
from repro.core.kernels import KernelBackend, get_backend
from repro.scenario import RunRecord, Scenario, Session
from repro.sharding import coordinator
from repro.sharding.engine import ShardEngine, run_shard
from repro.sharding.exchange import InProcessExchange
from repro.sharding.plan import ShardPlan

#: The kernels every SoA engine cycle runs.
UPDATE_KERNELS = ("fused_pso_update", "pbest_fold", "batch_eval")


def _counted(kernel: str):
    def method(self, *args, **kwargs):
        self.calls[kernel] += 1
        return getattr(self.inner, kernel)(*args, **kwargs)

    method.__name__ = kernel
    return method


class Counting(KernelBackend):
    """Counts each kernel call, then runs the NumPy kernel."""

    def __init__(self):
        self.inner = get_backend("numpy")
        self.name = self.inner.name
        self.calls = Counter()

    fused_pso_update = _counted("fused_pso_update")
    pbest_fold = _counted("pbest_fold")
    batch_eval = _counted("batch_eval")
    scatter_min_fold = _counted("scatter_min_fold")
    merge_candidates = _counted("merge_candidates")


@pytest.fixture(scope="module")
def fast_run():
    scenario = Scenario(function="sphere", nodes=24, total_evaluations=4800,
                        engine="fast", topology="newscast", seed=5)
    counting = Counting()
    run = run_single_fast(
        scenario.to_experiment_config(),
        topology=scenario.topology,
        kernel_backend=counting,
        dynamics=scenario.dynamics,
        adversary=scenario.adversary,
    )
    return scenario, counting, RunRecord.from_run_result(run)


@pytest.mark.parametrize(
    "kernel", UPDATE_KERNELS + ("scatter_min_fold", "merge_candidates")
)
def test_fast_engine_on_newscast_reaches(fast_run, kernel):
    _, counting, _ = fast_run
    assert counting.calls[kernel] > 0


def test_fast_engine_on_newscast_records_unchanged(fast_run):
    scenario, _, record = fast_run
    assert record.to_dict() == Session(scenario).run_one(0).to_dict()


@pytest.fixture(scope="module")
def shard_run():
    scenario = Scenario(function="sphere", nodes=30, total_evaluations=3600,
                        max_cycles=20, engine="fast", seed=23)
    shards = 2
    plan = ShardPlan(scenario.nodes, shards)
    countings = [Counting() for _ in range(shards)]  # one per thread
    engines = [
        ShardEngine(scenario.to_experiment_config(), 0, plan, shard,
                    kernel_backend=countings[shard])
        for shard in range(shards)
    ]
    exchange = InProcessExchange(shards, timeout=30.0)
    cap = Session(scenario).max_cycles()
    fragments: list[dict | None] = [None] * shards

    def work(shard: int) -> None:
        fragments[shard] = run_shard(engines[shard], exchange, cap)

    threads = [threading.Thread(target=work, args=(s,)) for s in range(shards)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(fragment is not None for fragment in fragments)
    return scenario, shards, countings, fragments


@pytest.mark.parametrize("kernel", UPDATE_KERNELS)
def test_shard_engine_reaches(shard_run, kernel):
    _, _, countings, _ = shard_run
    assert all(counting.calls[kernel] > 0 for counting in countings)


def test_shard_engine_records_unchanged(shard_run):
    scenario, shards, _, fragments = shard_run
    assert (coordinator._assemble(scenario, fragments).to_dict()
            == coordinator.run_sharded(scenario, 0, shards=shards).to_dict())


@pytest.fixture(scope="module")
def cohort_run():
    scenario = Scenario(function="sphere", nodes=16, total_evaluations=10**9,
                        engine="event", event_backend="fast", horizon=6.0,
                        seed=11)
    engine = CohortEventEngine(Session(scenario).deployment_config())
    counting = Counting()
    engine.backend = counting
    engine.provider.attach_kernels(engine.backend, engine.workspace)
    record = RunRecord.from_deployment_result(engine.run(until=scenario.horizon))
    return scenario, counting, record


@pytest.mark.parametrize("kernel", UPDATE_KERNELS + ("merge_candidates",))
def test_cohort_event_engine_after_attach_kernels_reaches(cohort_run, kernel):
    _, counting, _ = cohort_run
    assert counting.calls[kernel] > 0


def test_cohort_event_engine_after_attach_kernels_records_unchanged(cohort_run):
    scenario, _, record = cohort_run
    assert record.to_dict() == Session(scenario).run_one(0).to_dict()
