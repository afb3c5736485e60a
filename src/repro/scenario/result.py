"""The unified result shape shared by every engine and baseline.

Before the scenario layer, each frontend returned its own shape:
``RunResult`` from the cycle engines, ``DeploymentResult`` from the
asynchronous runtime, and ad-hoc quality lists from the baselines.
:class:`RunRecord` unifies them — it *is* a
:class:`~repro.core.runner.RunResult` extended with the fields the
other regimes need — and
:class:`Result` aggregates the repetitions of one scenario with the
same statistics surface the paper tables are built from.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.metrics import MessageTally, QualitySample
from repro.core.runner import RunResult
from repro.utils.numerics import RunningStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deployment.runtime import DeploymentResult
    from repro.scenario.spec import Scenario

__all__ = ["RunRecord", "Result"]


def _float_out(value: float | None) -> float | str | None:
    """JSON-safe float: non-finite values travel as their repr string.

    ``json.dumps`` would otherwise emit bare ``NaN``/``Infinity``
    tokens, which are not JSON and which strict parsers (other hosts,
    other languages) reject.
    """
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def _float_in(value: float | str | None) -> float | None:
    if value is None:
        return None
    return float(value)


#: Keys of the dynamics/adversary metric dicts holding (possibly
#: non-finite) floats; everything else in those dicts is an int, bool
#: or plain string and travels untouched.
_METRIC_FLOAT_KEYS = frozenset({
    "offline_error",
    "best_error_after_change",
    "recovery_time",
    "final_error",
    "final_true_error",
})


def _metrics_out(metrics: Mapping[str, Any] | None) -> dict | None:
    """JSON-safe copy of a dynamics/adversary metrics dict."""
    if metrics is None:
        return None
    return {
        k: (_float_out(v) if k in _METRIC_FLOAT_KEYS else v)
        for k, v in metrics.items()
    }


def _metrics_in(metrics: Mapping[str, Any] | None) -> dict | None:
    if metrics is None:
        return None
    return {
        k: (_float_in(v) if k in _METRIC_FLOAT_KEYS else v)
        for k, v in metrics.items()
    }


def _field_of(data: Mapping[str, Any], key: str, what: str) -> Any:
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{what}: missing field {key!r}") from None


@dataclass
class RunRecord(RunResult):
    """One repetition's outcome, engine- and baseline-agnostic.

    Inherits every :class:`~repro.core.runner.RunResult` field
    (best_value, quality, total_evaluations, cycles, stop_reason,
    threshold_local_time, threshold_total_evaluations, messages,
    node_best_spread, history, crashes, joins, dynamics, adversary)
    and adds:

    Attributes
    ----------
    sim_time:
        Simulated seconds elapsed (event engine; None on cycle
        engines, whose clock is ``cycles``).
    threshold_time:
        Simulated seconds when the quality threshold was first met
        (event engine's analogue of ``threshold_local_time``).
    node_qualities:
        Per-node final qualities where the regime tracks them (the
        independent baseline's best-of-n source data).
    """

    sim_time: float | None = None
    threshold_time: float | None = None
    node_qualities: list[float] | None = None

    @classmethod
    def from_run_result(cls, run: RunResult, **extra) -> "RunRecord":
        """Lift a legacy cycle-engine result into the unified record."""
        base = {f.name: getattr(run, f.name) for f in fields(RunResult)}
        base.update(extra)
        return cls(**base)

    @classmethod
    def from_deployment_result(cls, res: "DeploymentResult") -> "RunRecord":
        """Lift an asynchronous-deployment result into the unified record."""
        return cls(
            best_value=res.best_value,
            quality=res.quality,
            total_evaluations=res.total_evaluations,
            cycles=0,
            stop_reason=res.stop_reason,
            threshold_local_time=None,
            threshold_total_evaluations=None,
            messages=res.messages,
            node_best_spread=float("nan"),
            history=list(res.history),
            sim_time=res.sim_time,
            threshold_time=res.threshold_time,
            crashes=res.crashes,
            joins=res.joins,
            dynamics=res.dynamics,
            adversary=res.adversary,
        )

    @property
    def reached_threshold(self) -> bool:
        """Whether the quality threshold was met, on any engine's clock."""
        return (
            self.threshold_local_time is not None
            or self.threshold_time is not None
        )

    # -- JSON round-trip ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict: what the distributed workers ship back.

        Strict JSON — non-finite floats (an ``inf`` quality from a
        zero-evaluation event run, the event engine's NaN spread)
        travel as strings, so the payload survives any parser.
        :meth:`from_dict` restores an equal record, bit-for-bit: JSON
        floats round-trip exactly through ``repr``.
        """
        history: list = []
        for sample in self.history:
            if isinstance(sample, QualitySample):
                history.append({
                    "cycle": sample.cycle,
                    "evaluations": sample.evaluations,
                    "best_value": _float_out(sample.best_value),
                })
            else:  # event-engine (time, evaluations, best) tuples
                history.append([_float_out(x) for x in sample])
        return {
            "best_value": _float_out(self.best_value),
            "quality": _float_out(self.quality),
            "total_evaluations": int(self.total_evaluations),
            "cycles": int(self.cycles),
            "stop_reason": self.stop_reason,
            "threshold_local_time": self.threshold_local_time,
            "threshold_total_evaluations": self.threshold_total_evaluations,
            "messages": asdict(self.messages),
            "node_best_spread": _float_out(self.node_best_spread),
            "history": history,
            "crashes": int(self.crashes),
            "joins": int(self.joins),
            "sim_time": _float_out(self.sim_time),
            "threshold_time": _float_out(self.threshold_time),
            "node_qualities": (
                None
                if self.node_qualities is None
                else [_float_out(q) for q in self.node_qualities]
            ),
            "dynamics": _metrics_out(self.dynamics),
            "adversary": _metrics_out(self.adversary),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        history: list = []
        for sample in data.get("history", ()):
            if isinstance(sample, Mapping):
                history.append(
                    QualitySample(
                        cycle=int(sample["cycle"]),
                        evaluations=int(sample["evaluations"]),
                        best_value=_float_in(sample["best_value"]),
                    )
                )
            else:
                history.append(tuple(_float_in(x) for x in sample))
        threshold_local = data.get("threshold_local_time")
        threshold_total = data.get("threshold_total_evaluations")
        node_qualities = data.get("node_qualities")
        return cls(
            best_value=_float_in(_field_of(data, "best_value", "RunRecord")),
            quality=_float_in(_field_of(data, "quality", "RunRecord")),
            total_evaluations=int(
                _field_of(data, "total_evaluations", "RunRecord")
            ),
            cycles=int(_field_of(data, "cycles", "RunRecord")),
            stop_reason=str(_field_of(data, "stop_reason", "RunRecord")),
            threshold_local_time=(
                None if threshold_local is None else int(threshold_local)
            ),
            threshold_total_evaluations=(
                None if threshold_total is None else int(threshold_total)
            ),
            messages=MessageTally(**_field_of(data, "messages", "RunRecord")),
            node_best_spread=_float_in(
                _field_of(data, "node_best_spread", "RunRecord")
            ),
            history=history,
            crashes=int(data.get("crashes", 0)),
            joins=int(data.get("joins", 0)),
            sim_time=_float_in(data.get("sim_time")),
            threshold_time=_float_in(data.get("threshold_time")),
            node_qualities=(
                None
                if node_qualities is None
                else [_float_in(q) for q in node_qualities]
            ),
            dynamics=_metrics_in(data.get("dynamics")),
            adversary=_metrics_in(data.get("adversary")),
        )


@dataclass
class Result:
    """Aggregate over the repetitions of one scenario.

    The statistics surface the paper tables are built from
    (``quality_stats``, ``time_stats``, ``total_eval_stats``,
    ``success_rate``, ``qualities()``) over ``records``; ``scenario``
    is the spec that produced them.
    """

    scenario: "Scenario"
    records: list[RunRecord]
    elapsed_seconds: float = 0.0

    # -- statistics -------------------------------------------------------------

    @property
    def quality_stats(self) -> RunningStats:
        """avg/min/max/Var of final solution quality (table columns)."""
        stats = RunningStats()
        stats.extend(run.quality for run in self.records)
        return stats

    @property
    def time_stats(self) -> RunningStats | None:
        """Stats of time-to-threshold over *successful* runs, or None.

        Cycle engines report local evaluations; the event engine
        reports simulated seconds.
        """
        succeeded = [
            r.threshold_local_time if r.threshold_local_time is not None
            else r.threshold_time
            for r in self.records
            if r.reached_threshold
        ]
        if not succeeded:
            return None
        stats = RunningStats()
        stats.extend(float(t) for t in succeeded)
        return stats

    @property
    def total_eval_stats(self) -> RunningStats | None:
        """Stats of global evaluations-to-threshold (Table 4's scale)."""
        succeeded = [
            r.threshold_total_evaluations
            for r in self.records
            if r.threshold_total_evaluations is not None
        ]
        if not succeeded:
            return None
        stats = RunningStats()
        stats.extend(float(t) for t in succeeded)
        return stats

    @property
    def success_rate(self) -> float:
        """Fraction of runs that met the threshold (1.0 if no threshold)."""
        if self.scenario.quality_threshold is None:
            return 1.0
        return sum(r.reached_threshold for r in self.records) / len(self.records)

    @property
    def messages(self) -> MessageTally:
        """Communication tally summed over repetitions."""
        total = MessageTally()
        for record in self.records:
            total = total.merged(record.messages)
        return total

    def qualities(self) -> list[float]:
        """Per-run final qualities, in repetition order (figure dots)."""
        return [r.quality for r in self.records]

    # -- JSON round-trip ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict (scenario spec + per-repetition records)."""
        return {
            "scenario": self.scenario.to_dict(),
            "records": [record.to_dict() for record in self.records],
            "elapsed_seconds": float(self.elapsed_seconds),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Result":
        """Rebuild an aggregate result from :meth:`to_dict` output."""
        from repro.scenario.spec import Scenario

        return cls(
            scenario=Scenario.from_dict(_field_of(data, "scenario", "Result")),
            records=[
                RunRecord.from_dict(record)
                for record in _field_of(data, "records", "Result")
            ],
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )
