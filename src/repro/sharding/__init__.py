"""Sharded single-overlay simulation: one network, many engines.

The fast engine holds a whole overlay in one process; this package
splits one simulated network's node ids over several *shard* engines —
each a churn-free :class:`~repro.core.fastpath.FastEngine` over its id
block — and exchanges the cross-shard traffic (NEWSCAST view exchanges
and anti-entropy gossip offers) in windowed rounds with a barrier per
window, the same virtual-clock windowing discipline the cohort event
engine (:mod:`repro.core.eventpath`) uses to batch asynchronous time.

Layout:

* :mod:`repro.sharding.plan` — the id partitioner
  (:class:`ShardPlan`: contiguous balanced blocks, vectorized owner
  lookup);
* :mod:`repro.sharding.exchange` — the per-window message fabric:
  pipes between the worker processes (drained into the in-memory
  mailbox that is the contract's reference) and a file-spool exchange
  whose posted windows persist, enabling killed-worker replay recovery;
* :mod:`repro.sharding.views` — NEWSCAST view matrices whose entries
  are *global* ids, with local exchanges resolved in vertex-disjoint
  rounds and remote exchanges buffered as boundary-view messages;
* :mod:`repro.sharding.engine` — the per-shard driver: PSO via the
  SoA fast engine (PR 8 kernels) plus the split local/remote gossip
  phase;
* :mod:`repro.sharding.coordinator` — :func:`run_sharded`, which runs
  the shards (one worker process each, over pipes or over a spool),
  fails fast on or respawns a crashed shard worker, and reassembles
  one :class:`~repro.scenario.result.RunRecord`.

Selected through the execution surface:
``Session(scenario).run(policy=ExecutionPolicy(shards=4))``.
"""

from repro.sharding.coordinator import run_sharded, run_sharded_detailed
from repro.sharding.plan import ShardPlan

__all__ = [
    "ShardPlan",
    "run_sharded",
    "run_sharded_detailed",
]
