"""Experiment definitions: one module per paper artefact.

========  ====================  =======================================
Module    Paper artefact        Question
========  ====================  =======================================
``exp1``  Table 1 / Figure 1    quality vs swarm size ``k`` (×network
                                size), fixed per-node budget
``exp2``  Table 2 / Figure 2    quality vs network size ``n``, fixed
                                *total* budget
``exp3``  Table 3 / Figure 3    quality vs gossip cycle length ``r``
``exp4``  Table 4 / Figure 4    time to reach quality 1e-10 vs ``n``
``exp5``  Sec. 4 estimate       per-node bandwidth from measured
                                NEWSCAST / coordination message counts
``exp6``  (beyond the paper)    dynamic x hostile factorial on sphere
========  ====================  =======================================

Every module exposes the same four-name interface:

* ``NAME`` / ``TITLE`` — the CLI key and the report heading;
* ``SCALES`` — the table of sweep extents, one parameter row per scale;
* ``points(scale, seed, engine)`` — the sweep as a list of declarative
  :class:`~repro.scenario.Scenario` specs (what the CLI's
  ``--dump-scenarios`` prints as JSON);
* ``report(data)`` — paper-style tables + ASCII figures as a string.

:func:`repro.experiments.common.run` ``(module, scale, seed, progress,
engine, policy)`` executes a module's points through the session
facade and returns the :class:`~repro.experiments.common.SweepData`
that ``report`` takes.

Scales: ``"smoke"`` (seconds; the benchmark harness), ``"reduced"``
(minutes; default for manual runs), ``"full"`` (hours; the paper's
exact extents — 50 repetitions, n up to 2^16); exp6 adds ``"tiny"``
(the CI smoke grid).

Command line::

    python -m repro.experiments exp1 --scale reduced --seed 42
"""

from repro.experiments import (
    exp1_swarm_size,
    exp2_network_size,
    exp3_cycle_length,
    exp4_time_to_quality,
    exp5_overhead,
    exp6_dynamic_hostile,
)
from repro.experiments.common import SweepData, run_sweep

EXPERIMENTS = {
    "exp1": exp1_swarm_size,
    "exp2": exp2_network_size,
    "exp3": exp3_cycle_length,
    "exp4": exp4_time_to_quality,
    "exp5": exp5_overhead,
    "exp6": exp6_dynamic_hostile,
}

__all__ = [
    "EXPERIMENTS",
    "SweepData",
    "run_sweep",
    "exp1_swarm_size",
    "exp2_network_size",
    "exp3_cycle_length",
    "exp4_time_to_quality",
    "exp5_overhead",
    "exp6_dynamic_hostile",
]
