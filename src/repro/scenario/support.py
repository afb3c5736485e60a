"""What runs where: the one table of "feature X does not run under regime Y".

The paper needs four knobs on one stack; everything else a
:class:`~repro.scenario.spec.Scenario` can say is an extension with a
validity domain.  That domain is data, here and nowhere else:
:data:`FEATURES` are the rows, :data:`COLUMNS` the six values of
``Scenario.regime`` plus the two an
:class:`~repro.scenario.policy.ExecutionPolicy` adds — ``jobs``
(``workers > 1`` or a spool: the scenario crosses a process boundary as
a pickle or a job file) and ``shards`` — and :data:`UNSUPPORTED` the
cells.  Validation (:func:`check`), README's
"What runs where" block (:func:`markdown`) and the exhaustive
``tests/scenario/test_support.py`` all read the same rows.  Per-field
range checks and the selector consistency that *derives* the regime
(``baseline`` needs ``engine="reference"``, ``event`` needs a
``horizon``) stay in :mod:`repro.scenario.spec`.
"""

from __future__ import annotations

from repro.scenario.spec import Scenario, ScenarioValidationError, TransportSpec

__all__ = [
    "REGIMES",
    "COLUMNS",
    "FEATURES",
    "UNSUPPORTED",
    "check",
    "markdown",
]

#: The values of ``Scenario.regime``.
REGIMES = ("reference", "fast", "event", "event-fast", "centralized",
           "independent")
COLUMNS = REGIMES + ("jobs", "shards")

_EVENT = ("event", "event-fast")
_BASELINES = ("centralized", "independent")
_DEFAULT_TRANSPORT = TransportSpec()

#: Rows: name -> (the ``Scenario`` field an error blames, "is it switched
#: on"), in the order :func:`check` reads them — the first violated row
#: is the one an error names.
FEATURES = {
    "topology oracle": ("topology", lambda s: s.topology == "oracle"),
    "topology cyclon / ring / kregular / star": (
        "topology",
        lambda s: s.topology in ("cyclon", "ring", "kregular", "star")),
    "rng_mode batched": ("rng_mode", lambda s: s.rng_mode != "strict"),
    "churn": ("churn", lambda s: s.churn.enabled),
    "dynamics": ("dynamics", lambda s: s.dynamics.enabled),
    "adversary": ("adversary", lambda s: s.adversary.enabled),
    "quality_threshold": (
        "quality_threshold", lambda s: s.quality_threshold is not None),
    "max_cycles": ("max_cycles", lambda s: s.max_cycles is not None),
    "record_history": ("record_history", lambda s: s.record_history),
    "observers": ("observers", lambda s: bool(s.observers)),
    "swarm_size": ("swarm_size", lambda s: s.swarm_size is not None),
    "event_window": ("event_window", lambda s: s.event_window is not None),
    "latency beyond the fastest timer period": (
        "transport.latency_max",
        lambda s: s.transport.latency_max > min(
            s.transport.compute_period, s.transport.newscast_period,
            s.transport.gossip_period)),
    "transport other than the default": (
        "transport", lambda s: s.transport != _DEFAULT_TRANSPORT),
    "engine other than fast": ("engine", lambda s: s.regime != "fast"),
}


def _cells(blocks: list[tuple[tuple, tuple, str]]) -> dict[tuple[str, str], str]:
    """Spread ``(rows, columns, reason)`` blocks into one cell per pair."""
    return {(row, column): reason
            for rows, columns, reason in blocks
            for row in rows for column in columns}


#: ``(feature, column) -> reason``; absent = supported.
UNSUPPORTED = _cells([
    (("topology oracle",), ("reference", *_EVENT),
     "the oracle sampler is the fast engine's idealized overlay; other "
     "engines model real topologies"),
    (("topology cyclon / ring / kregular / star",), _EVENT,
     "the event runtimes model NEWSCAST"),
    (("topology cyclon / ring / kregular / star",), ("shards",),
     "the sharded views layer implements newscast and oracle only"),
    (("rng_mode batched",), ("reference", "event", *_BASELINES),
     "batched draws are a SoA-kernel regime (the fast engine or the fast "
     "event backend)"),
    (("topology oracle", "topology cyclon / ring / kregular / star",
      "churn", "dynamics", "adversary"),
     _BASELINES,
     "a baseline is plain PSO on one shared static function: no overlay, "
     "no population change, nobody to lie"),
    (("quality_threshold", "max_cycles", "record_history", "observers"),
     _BASELINES,
     "a baseline runs to its budget outside any engine: no cycle to cap, "
     "sample or observe, no threshold stop"),
    (("churn",), ("shards",), "joins allocate ids across shard boundaries"),
    (("dynamics",), ("shards",),
     "epoch transitions must refresh every node's stale bests atomically, "
     "which shard windows cannot order"),
    (("adversary",), ("shards",),
     "the Byzantine subset and its tallies are engine-global state"),
    (("max_cycles",), _EVENT,
     "the event engines are bounded by horizon, not cycles"),
    (("observers",), _EVENT,
     "observers are called once per cycle; the event engines have none"),
    (("observers",), ("jobs",),
     "live observer objects stay in the process that built them: a job "
     "is a pickle or a JSON file"),
    (("observers",), ("shards",),
     "live observer objects cannot cross shard boundaries"),
    (("swarm_size",),
     ("reference", "fast", *_EVENT, "independent", "shards"),
     "only the centralized baseline's one big swarm takes a swarm_size"),
    (("event_window",),
     ("reference", "fast", "event", *_BASELINES, "shards"),
     "cohort windows are a fast-event-backend knob"),
    (("latency beyond the fastest timer period",), ("event-fast",),
     "the cohort-batched backend treats delivery as instantaneous — "
     "study latency on event_backend='reference'"),
    (("latency beyond the fastest timer period",
      "transport other than the default"),
     ("reference", "fast", *_BASELINES, "shards"),
     "only the event engines have clocks and wires"),
    (("engine other than fast",), ("shards",),
     "the per-shard substrate is the SoA fast engine (engine='fast')"),
])

def check(scenario: Scenario, column: str | None = None) -> None:
    """Raise for the first feature ``scenario`` has on that ``column`` lacks.

    ``column=None`` is the scenario's own regime — what construction
    validates; ``"jobs"`` / ``"shards"`` is what the execution layers
    add.  Every violation is a
    :class:`~repro.scenario.spec.ScenarioValidationError` on the row's
    field, naming the column.
    """
    column = scenario.regime if column is None else column
    for name, (field, is_on) in FEATURES.items():
        if (name, column) in UNSUPPORTED and is_on(scenario):
            raise ScenarioValidationError(
                field, f"{UNSUPPORTED[name, column]} (unsupported under {column!r})")


def markdown() -> str:
    """The table as GitHub markdown (README's "What runs where" block).

    One row per feature, one column per regime / execution column; a
    cell is ``yes`` or ``no`` with the number of its reason in the list
    under the table.
    """
    reasons: list[str] = []
    lines = [
        "| feature | " + " | ".join(f"`{c}`" for c in COLUMNS) + " |",
        "|---|" + "---|" * len(COLUMNS),
    ]
    for name in FEATURES:
        cells = []
        for column in COLUMNS:
            reason = UNSUPPORTED.get((name, column))
            if reason is None:
                cells.append("yes")
                continue
            if reason not in reasons:
                reasons.append(reason)
            cells.append(f"no [{reasons.index(reason) + 1}]")
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    lines.append("")
    lines += [f"{i}. {reason}" for i, reason in enumerate(reasons, 1)]
    return "\n".join(lines)
