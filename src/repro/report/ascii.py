"""ASCII rendering of traces and CDFs.

The CLI and examples run in terminals without a plotting stack, so
the figures are rendered as text: good enough to eyeball the shapes the
paper shows (the exponential ramp, the compensation drop, the CDF gap).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis.stats import EmpiricalCdf
from ..analysis.trace import TraceRecorder

__all__ = [
    "render_trace",
    "render_cdf_pair",
    "render_improvement_vs_utilization",
    "render_series",
]

#: Point markers, one per series in order (cycling past six).
_MARKERS = "*o+x#@"


def render_series(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    width: int = 72,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
    hline: Optional[float] = None,
    hline_label: str = "",
) -> str:
    """Render labelled (x, y) series on one shared-axis ASCII canvas.

    *hline* draws a horizontal reference line (the optimal-window dash
    of Figure 1a/b).  Returns a multi-line string.
    """
    points = [(name, list(pts)) for name, pts in series if pts]
    if not points:
        return "(no data)"
    xs = [x for __, pts in points for x, __y in pts]
    ys = [y for __, pts in points for __x, y in pts]
    if hline is not None:
        ys.append(hline)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    y_lo = min(y_lo, 0.0)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for __ in range(height)]

    def plot(x: float, y: float, marker: str) -> None:
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[row][col] = marker

    if hline is not None:
        row = height - 1 - int((hline - y_lo) / y_span * (height - 1))
        for col in range(width):
            grid[row][col] = "-"

    for index, (name, pts) in enumerate(points):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in pts:
            plot(x, y, marker)

    lines: List[str] = []
    lines.append("%s (max %.3g)" % (y_label, y_hi))
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(" %s: %.3g .. %.3g" % (x_label, x_lo, x_hi))
    legend = "  ".join(
        "%s=%s" % (_MARKERS[i % len(_MARKERS)], name)
        for i, (name, __) in enumerate(points)
    )
    if hline is not None:
        legend += "  -=%s (%.3g)" % (hline_label or "reference", hline)
    lines.append(" " + legend)
    return "\n".join(lines)


def render_trace(
    trace: TraceRecorder,
    width: int = 72,
    height: int = 18,
    x_label: str = "time",
    y_label: str = "value",
    hline: Optional[float] = None,
    hline_label: str = "optimal",
) -> str:
    """Render one trace (Figure 1 upper-panel style)."""
    return render_series(
        [(trace.name, trace.samples)],
        width=width,
        height=height,
        x_label=x_label,
        y_label=y_label,
        hline=hline,
        hline_label=hline_label,
    )


def render_improvement_vs_utilization(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    width: int = 72,
    height: int = 18,
    x_label: str = "steady-state bottleneck utilization",
    y_label: str = "improvement [s]",
) -> str:
    """Render improvement-vs-utilization series (Figure 1c style).

    The paper's central steady-state panel: how much the start-up
    scheme buys (y) as a function of how loaded the bottleneck relay is
    (x), one point per swept operating point.  A dashed zero line marks
    "no improvement", so points below it — the scheme hurting — are
    immediately visible.
    """
    return render_series(
        series,
        width=width,
        height=height,
        x_label=x_label,
        y_label=y_label,
        hline=0.0,
        hline_label="no improvement",
    )


def render_cdf_pair(
    first_name: str,
    first: EmpiricalCdf,
    second_name: str,
    second: EmpiricalCdf,
    width: int = 72,
    height: int = 18,
    x_label: str = "time to last byte [s]",
) -> str:
    """Render two CDFs on one canvas (Figure 1 lower-panel style)."""
    return render_series(
        [(first_name, first.points()), (second_name, second.points())],
        width=width,
        height=height,
        x_label=x_label,
        y_label="cumulative distribution",
    )
