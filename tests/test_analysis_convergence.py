"""Unit tests for convergence measurement (repro.analysis.convergence)."""

from __future__ import annotations

import pytest

from repro.analysis.convergence import convergence_time, settled_error, time_in_band
from repro.analysis.trace import TraceRecorder


def trace_of(samples):
    t = TraceRecorder()
    for time, value in samples:
        t.add(time, value)
    return t


def test_converges_after_last_excursion():
    t = trace_of([(0, 2), (1, 50), (2, 10), (3, 11), (4, 9)])
    # Band 10 +- 2: enters at t=2 and stays.
    assert convergence_time(t, target=10, tolerance=2) == 2


def test_transient_visit_does_not_count():
    t = trace_of([(0, 10), (1, 50), (2, 10), (3, 10)])
    # In band at t=0, leaves at t=1, re-enters at t=2 for good.
    assert convergence_time(t, target=10, tolerance=2) == 2


def test_never_converges():
    t = trace_of([(0, 2), (1, 50)])
    assert convergence_time(t, target=10, tolerance=2) is None


def test_empty_trace():
    assert convergence_time(TraceRecorder(), 10, 1) is None


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        convergence_time(trace_of([(0, 1)]), 10, -1)


def test_settled_error_signed():
    t = trace_of([(0, 2), (1, 13)])
    assert settled_error(t, target=10) == 3
    assert settled_error(t, target=15) == -2


def test_time_in_band_step_semantics():
    t = trace_of([(0, 10), (1, 50), (2, 10)])
    # In band during [0,1) and [2,3]; out during [1,2).
    assert time_in_band(t, 10, 2, start=0.0, end=3.0) == pytest.approx(2.0)


def test_time_in_band_partial_window():
    t = trace_of([(0, 10)])
    assert time_in_band(t, 10, 1, start=0.5, end=2.0) == pytest.approx(1.5)


def test_time_in_band_validates():
    with pytest.raises(ValueError):
        time_in_band(trace_of([(0, 1)]), 1, 1, start=2.0, end=1.0)


def test_time_in_band_empty_trace():
    assert time_in_band(TraceRecorder(), 1, 1, 0.0, 1.0) == 0.0


def test_on_real_experiment_trace():
    """CircuitStart's source trace converges within ~25% of optimal and
    stays there for most of the post-exit run."""
    from repro.experiments import TraceConfig, get_experiment
    from repro.units import seconds

    result = get_experiment("trace").run(TraceConfig(duration=seconds(1.0)))
    target = float(result.optimal_cwnd_cells)
    tolerance = max(3.0, 0.25 * target)
    at = convergence_time(result.trace, target, tolerance)
    assert at is not None
    assert at < 0.5
    in_band = time_in_band(result.trace, target, tolerance, at, 1.0)
    assert in_band > 0.8 * (1.0 - at)
