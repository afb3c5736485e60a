"""Baseline optimizers the framework is compared against.

The paper's introduction frames two extremes of distributed
optimization design, plus the centralized reference:

* **Centralized** (:mod:`~repro.baselines.centralized`) — one big
  swarm on "a single, but much more powerful, machine" spending the
  same total budget.  The paper's claim (iv) is that the distributed
  system matches it.
* **Without coordination** (:mod:`~repro.baselines.independent`) —
  parallel independent runs with different seeds; the final answer is
  the best over runs.  The "exploiting stochasticity" extreme.

Both are declared as ``Scenario(baseline=...)`` and executed by
:class:`repro.scenario.Session` through each module's ``run_record``
hook, so they report the same :class:`~repro.scenario.RunRecord` as
the distributed system.  The third design the paper discusses,
master–slave, is not a baseline module at all: it is the unchanged
framework over a static star overlay, ``Scenario(topology="star")``.
"""
