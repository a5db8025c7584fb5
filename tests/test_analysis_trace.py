"""Unit tests for trace recording (repro.analysis.trace)."""

from __future__ import annotations

import pytest

from repro.analysis.trace import TraceRecorder, step_value_at


def make_trace():
    t = TraceRecorder("cwnd")
    for time, value in [(0.0, 2), (1.0, 4), (2.0, 8), (3.0, 5)]:
        t.add(time, value)
    return t


def test_add_and_len():
    t = make_trace()
    assert len(t) == 4
    assert t.samples == [(0.0, 2.0), (1.0, 4.0), (2.0, 8.0), (3.0, 5.0)]


def test_times_must_be_monotone():
    t = TraceRecorder()
    t.add(1.0, 1)
    with pytest.raises(ValueError):
        t.add(0.5, 2)


def test_equal_times_allowed():
    t = TraceRecorder()
    t.add(1.0, 1)
    t.add(1.0, 2)
    assert t.value_at(1.0) == 2.0  # last sample wins


def test_final_and_max():
    t = make_trace()
    assert t.final_value == 5.0
    assert t.max_value == 8.0


def test_empty_trace_raises():
    t = TraceRecorder()
    with pytest.raises(ValueError):
        __ = t.final_value
    with pytest.raises(ValueError):
        __ = t.max_value


def test_value_at_is_step_function():
    t = make_trace()
    assert t.value_at(0.0) == 2.0
    assert t.value_at(0.5) == 2.0
    assert t.value_at(1.0) == 4.0
    assert t.value_at(2.7) == 8.0
    assert t.value_at(99.0) == 5.0


def test_value_at_before_first_sample_raises():
    t = make_trace()
    with pytest.raises(ValueError):
        t.value_at(-0.1)


def test_step_value_at_empty_raises():
    with pytest.raises(ValueError):
        step_value_at([], [], 1.0)


def test_scaled_converts_units():
    t = make_trace()
    kb = t.scaled(time_factor=1e3, value_factor=0.512)
    assert kb.times[1] == 1000.0
    assert kb.values[0] == pytest.approx(1.024)
    # Original untouched.
    assert t.times[1] == 1.0
