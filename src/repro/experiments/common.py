"""Shared sweep machinery for the experiment modules.

A *sweep* is an ordered list of
:class:`~repro.scenario.spec.Scenario` points — what each experiment
module's ``points(scale, seed, engine)`` returns and what
``python -m repro.experiments expN --dump-scenarios`` prints as JSON.
Its result, :class:`SweepData`, keeps one
:class:`~repro.scenario.result.Result` per point (``result.scenario``
is the point) and offers the groupings the reports need (per function,
per series parameter).

Execution is :func:`repro.scenario.session.run_points`, the same call
``Session.sweep`` makes, so the experiment modules share one code path
with the examples, baselines and the deployment runtime.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Sequence

from repro.analysis.plots import Series, ascii_plot
from repro.scenario import ExecutionPolicy, Result, Scenario
from repro.scenario.session import run_points
from repro.utils.exceptions import ConfigurationError
from repro.utils.numerics import safe_log10

__all__ = [
    "SweepData",
    "figure_panels",
    "run",
    "run_sweep",
    "scale_params",
    "stderr_progress",
]


def scale_params(scales: dict[str, dict], scale: str) -> dict:
    """The parameter row of ``scale`` in an experiment's ``SCALES`` table."""
    try:
        return scales[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {scale!r}; available: {sorted(scales)}"
        ) from None


@dataclass
class SweepData:
    """All results of one experiment sweep."""

    name: str
    scale: str
    entries: list[Result] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def functions(self) -> list[str]:
        """Function names present, in first-seen order."""
        seen: dict[str, None] = {}
        for res in self.entries:
            seen.setdefault(res.scenario.function, None)
        return list(seen)

    def for_function(self, function: str) -> list[Result]:
        """Entries restricted to one function, sweep order preserved."""
        return [r for r in self.entries if r.scenario.function == function]

    def best_per_function(self) -> dict[str, Result]:
        """For each function, the entry with the lowest mean quality.

        This is how the paper's "best results" tables are built: the
        table row is the best configuration of the sweep.

        NaN means (e.g. from repetitions whose quality overflowed to
        inf) never win: any entry with a comparable mean beats a
        NaN-mean incumbent, and a NaN-mean candidate only stands in
        while no better entry exists — so a NaN-first sweep still
        reports the true best row.
        """
        best: dict[str, Result] = {}
        for res in self.entries:
            function = res.scenario.function
            mean = res.quality_stats.mean
            cur = best.get(function)
            if cur is None:
                best[function] = res
                continue
            if math.isnan(mean):
                continue
            if math.isnan(cur.quality_stats.mean) or mean < cur.quality_stats.mean:
                best[function] = res
        return best

    def series(
        self,
        function: str,
        x_of: Callable[[Scenario], float],
        group_of: Callable[[Scenario], object],
        y_of: Callable[[Result], float] | None = None,
    ) -> dict[object, tuple[list[float], list[float]]]:
        """Build figure series: group → (xs, ys).

        Default ``y`` is log10 of mean quality (the paper's axes).
        """
        if y_of is None:
            y_of = lambda res: float(safe_log10(max(res.quality_stats.mean, 0.0)))
        out: dict[object, tuple[list[float], list[float]]] = {}
        for res in self.for_function(function):
            key = group_of(res.scenario)
            xs, ys = out.setdefault(key, ([], []))
            xs.append(float(x_of(res.scenario)))
            ys.append(float(y_of(res)))
        return out


def figure_panels(
    data: SweepData,
    figure: int,
    caption: str,
    x_of: Callable[[Scenario], float],
    group_of: Callable[[Scenario], object],
    group_label: str,
    xlabel: str,
    ylabel: str = "logq",
    logx: bool = False,
    y_of: Callable[[Result], float] | None = None,
) -> list[str]:
    """One ASCII panel per function: ``y`` vs ``x``, one curve per group.

    Returns report sections (each panel followed by a blank line);
    panels are titled ``Figure <figure> (<function>): <caption>`` and
    curves ``<group_label>=<group>``.
    """
    sections = []
    for function in data.functions():
        series_map = data.series(function, x_of=x_of, group_of=group_of, y_of=y_of)
        series = [
            Series(label=f"{group_label}={group}", xs=xs, ys=ys)
            for group, (xs, ys) in sorted(series_map.items())
        ]
        sections.append(
            ascii_plot(
                series,
                title=f"Figure {figure} ({function}): {caption}",
                xlabel=xlabel,
                ylabel=ylabel,
                logx=logx,
            )
        )
        sections.append("")
    return sections


def run_sweep(
    name: str,
    scale: str,
    points: Sequence[Scenario],
    progress: Callable[[str], None] | None = None,
    policy: ExecutionPolicy | None = None,
) -> SweepData:
    """Execute every point; returns the collected data in sweep order.

    :func:`~repro.scenario.session.run_points` plus the progress-line
    formatting and the :class:`SweepData` — see there for what
    ``policy`` selects (sequential, worker pool, spool); per-point
    results are identical on every path.  ``progress`` receives one
    line per completed point.
    """
    points = list(points)
    done = 0

    def point_progress(index: int, scenario: Scenario, res: Result) -> None:
        nonlocal done
        done += 1
        progress(
            f"[{name}:{scale}] {done}/{len(points)} {scenario.describe()} "
            f"-> mean quality {res.quality_stats.mean:.3e}"
        )

    t0 = time.perf_counter()
    entries = run_points(
        points, point_progress if progress is not None else None, policy
    )
    return SweepData(
        name=name,
        scale=scale,
        entries=entries,
        elapsed_seconds=time.perf_counter() - t0,
    )


def run(
    module: ModuleType,
    scale: str = "reduced",
    seed: int = 42,
    progress: Callable[[str], None] | None = None,
    engine: str | None = None,
    policy: ExecutionPolicy | None = None,
) -> SweepData:
    """Execute one experiment module's sweep at ``scale``.

    ``engine`` selects the scenario engine of every point —
    ``"fast"`` runs the vectorized SoA path, which makes the
    large-``n`` corners of the paper sweeps (exp2's ``n = 2^16``)
    tractable; ``None`` keeps the module's own default (``reference``
    for the paper sweeps, ``fast`` for exp6).
    """
    if engine is None:
        points = module.points(scale, seed)
    else:
        points = module.points(scale, seed, engine)
    return run_sweep(module.NAME, scale, points, progress, policy)


def stderr_progress(message: str) -> None:
    """Default progress sink: one line per configuration on stderr."""
    print(message, file=sys.stderr, flush=True)
