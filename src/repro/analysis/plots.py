"""ASCII plots standing in for the paper's figures.

Figures 1–3 plot log solution quality against a swept parameter with
one line per network size / swarm size; Figure 4 plots log time
against network size.  :func:`ascii_plot` renders the same series as
a fixed-size character canvas so every benchmark run can show the
curve *shape* (who wins, monotonicity, crossovers) directly in the
terminal and in captured bench output.

The renderer is dependency-free and deterministic, which also lets
tests assert on plotted extents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Series", "ascii_plot"]

#: Glyphs assigned to series in order.
_MARKERS = "ox+*#@%&"


@dataclass
class Series:
    """One plotted line: x/y data plus a legend label."""

    label: str
    xs: Sequence[float]
    ys: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")

    def finite_points(self) -> list[tuple[float, float]]:
        """(x, y) pairs with non-finite y dropped (unconverged runs)."""
        return [
            (float(x), float(y))
            for x, y in zip(self.xs, self.ys)
            if math.isfinite(float(y)) and math.isfinite(float(x))
        ]


def ascii_plot(
    series: Sequence[Series],
    width: int = 72,
    height: int = 20,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
) -> str:
    """Render series onto a character canvas.

    Parameters
    ----------
    series:
        Lines to draw; each gets the next marker glyph.
    width, height:
        Canvas size in characters (excluding axes/labels).
    title, xlabel, ylabel:
        Plot annotations.
    logx:
        Plot ``log2`` of x (the paper's network-size axes).

    Returns the plot as a multi-line string; series with no finite
    points are listed in the legend as "(no data)".
    """
    if width < 16 or height < 4:
        raise ValueError("canvas too small (need width >= 16, height >= 4)")

    def tx(x: float) -> float:
        return math.log2(x) if logx else x

    pts_per_series = []
    all_pts: list[tuple[float, float]] = []
    for s in series:
        pts = [(tx(x), y) for x, y in s.finite_points() if (not logx or x > 0)]
        pts_per_series.append(pts)
        all_pts.extend(pts)

    lines: list[str] = []
    if title:
        lines.append(title)

    if not all_pts:
        lines.append("(no finite data to plot)")
        for s in series:
            lines.append(f"  {s.label}: (no data)")
        return "\n".join(lines)

    xmin = min(p[0] for p in all_pts)
    xmax = max(p[0] for p in all_pts)
    ymin = min(p[1] for p in all_pts)
    ymax = max(p[1] for p in all_pts)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    canvas = [[" "] * width for _ in range(height)]
    for idx, pts in enumerate(pts_per_series):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in pts:
            col = int((x - xmin) / (xmax - xmin) * (width - 1))
            row = int((ymax - y) / (ymax - ymin) * (height - 1))
            canvas[row][col] = marker

    ytop = f"{ymax:.3g}"
    ybot = f"{ymin:.3g}"
    margin = max(len(ytop), len(ybot), len(ylabel)) + 1
    for r, rowchars in enumerate(canvas):
        if r == 0:
            prefix = ytop.rjust(margin)
        elif r == height - 1:
            prefix = ybot.rjust(margin)
        elif r == height // 2 and ylabel:
            prefix = ylabel[: margin - 1].rjust(margin)
        else:
            prefix = " " * margin
        lines.append(prefix + "|" + "".join(rowchars))
    lines.append(" " * margin + "+" + "-" * width)
    xleft = f"{xmin:.3g}" + (" (log2)" if logx else "")
    xright = f"{xmax:.3g}"
    gap = max(1, width - len(xleft) - len(xright))
    lines.append(" " * (margin + 1) + xleft + " " * gap + xright)
    if xlabel:
        lines.append(" " * (margin + 1) + xlabel.center(width))
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} = {s.label}"
        + ("" if pts_per_series[i] else " (no data)")
        for i, s in enumerate(series)
    )
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)
