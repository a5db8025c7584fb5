"""Convergence measurement on window traces.

The Figure-1 panels make a claim the eye checks instantly — "the trace
settles onto the dashed line" — that needs a number to assert in
tests: :func:`convergence_time` returns the first instant from
which the trace stays inside a tolerance band around the target for
good, and :func:`settled_error` the trace's final distance from it.
"""

from __future__ import annotations

from typing import Optional

from .trace import TraceRecorder

__all__ = ["convergence_time", "settled_error", "time_in_band"]


def convergence_time(
    trace: TraceRecorder,
    target: float,
    tolerance: float,
) -> Optional[float]:
    """First time after which the trace never leaves ``target ± tolerance``.

    Returns ``None`` when the trace ends outside the band (it never
    converged) or is empty.  The *last* excursion decides: transient
    early visits to the band don't count as convergence.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative, got %r" % tolerance)
    if not trace.times:
        return None
    low, high = target - tolerance, target + tolerance
    last_escape: Optional[float] = None
    inside = False
    entered_at: Optional[float] = None
    for time, value in zip(trace.times, trace.values):
        now_inside = low <= value <= high
        if now_inside and not inside:
            entered_at = time
        inside = now_inside
    if not inside:
        return None
    return entered_at


def settled_error(trace: TraceRecorder, target: float) -> float:
    """Signed distance of the trace's final value from *target*."""
    return trace.final_value - target


def time_in_band(
    trace: TraceRecorder,
    target: float,
    tolerance: float,
    start: float,
    end: float,
) -> float:
    """Seconds the step-trace spends inside ``target ± tolerance``.

    Evaluated over [start, end] treating the trace as a step function
    (each sample holds until the next one).
    """
    if end < start:
        raise ValueError("end precedes start")
    if not trace.times:
        return 0.0
    low, high = target - tolerance, target + tolerance
    total = 0.0
    points = list(zip(trace.times, trace.values))
    for i, (time, value) in enumerate(points):
        seg_start = max(time, start)
        seg_end = min(points[i + 1][0] if i + 1 < len(points) else end, end)
        if seg_end <= seg_start:
            continue
        if low <= value <= high:
            total += seg_end - seg_start
    return total
