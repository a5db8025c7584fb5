"""Tests for the Figure-1a/b trace experiment — the paper's claims."""

from __future__ import annotations

import pytest
from helpers import json_digest, pins, render_digest

from repro.experiments import get_experiment
from repro.experiments.fig1_traces import TraceConfig
from repro.units import seconds

run_trace_experiment = get_experiment("trace").run


@pytest.fixture(scope="module")
def near_result():
    return run_trace_experiment(
        TraceConfig(bottleneck_distance=1, duration=seconds(1.0))
    )


@pytest.fixture(scope="module")
def far_result():
    return run_trace_experiment(
        TraceConfig(bottleneck_distance=3, duration=seconds(1.0))
    )


def test_config_validates_distance():
    with pytest.raises(ValueError):
        TraceConfig(bottleneck_distance=5)
    with pytest.raises(ValueError):
        TraceConfig(relay_count=0)


def test_link_specs_place_bottleneck():
    config = TraceConfig(bottleneck_distance=2)
    specs = config.link_specs()
    assert len(specs) == 4
    assert specs[2].rate == config.bottleneck_rate
    assert specs[0].rate == config.fast_rate


def test_ramp_doubles_from_two(near_result, far_result):
    for result in (near_result, far_result):
        values = result.trace.values
        assert values[0] == 2.0
        assert values[1] == 4.0
        assert values[2] == 8.0


def test_startup_exits_within_plot_window(near_result, far_result):
    """Adjustment happens quickly — well inside the paper's 300 ms axis."""
    for result in (near_result, far_result):
        assert result.startup_exit_time is not None
        assert result.startup_exit_time < 0.3


def test_overshoot_is_compensated(near_result, far_result):
    """After exit the window sits near optimal, far below the peak."""
    for result in (near_result, far_result):
        assert result.peak_cwnd_cells > result.optimal_cwnd_cells
        assert result.final_cwnd_cells < result.peak_cwnd_cells
        # Converges to within ~25% of the model optimum.
        error = abs(result.final_error_cells)
        assert error <= max(3, 0.25 * result.optimal_cwnd_cells)


def test_convergence_independent_of_bottleneck_distance(near_result, far_result):
    """The paper's headline: distance to the bottleneck barely matters."""
    assert near_result.optimal_cwnd_cells == far_result.optimal_cwnd_cells
    assert abs(near_result.final_cwnd_cells - far_result.final_cwnd_cells) <= max(
        2, 0.2 * near_result.optimal_cwnd_cells
    )
    # Exit times within ~60 ms of each other.
    assert abs(near_result.startup_exit_time - far_result.startup_exit_time) < 0.06


def test_no_repeated_collapse_after_compensation(near_result):
    """One downward correction, not a sawtooth: after the exit the
    window never falls below half the compensated value."""
    exit_time = near_result.startup_exit_time
    compensated = near_result.trace.value_at(exit_time)
    tail = [v for t, v in near_result.trace.samples if t >= exit_time]
    assert min(tail) >= compensated / 2


def test_trace_kb_ms_conversion(near_result):
    kb = near_result.trace_kb_ms()
    assert kb.times[-1] <= 1000.0 + 1e-6
    assert kb.values[0] == pytest.approx(2 * 0.512)


def test_baseline_without_ramp_is_slower():
    """BackTap alone (without) adapts linearly: far from optimal at the
    time CircuitStart has already converged."""
    result = run_trace_experiment(
        TraceConfig(bottleneck_distance=1, controller_kind="without",
                    duration=seconds(0.3))
    )
    # At 300 ms the Vegas-only window is still crawling upward.
    assert result.final_cwnd_cells < result.optimal_cwnd_cells / 2
    assert result.startup_exit_time is None


def test_plain_slow_start_overshoots_then_halves():
    result = run_trace_experiment(
        TraceConfig(bottleneck_distance=1, controller_kind="plain-slowstart",
                    duration=seconds(0.5))
    )
    assert result.startup_exit_time is not None
    assert result.peak_cwnd_cells > result.optimal_cwnd_cells


@pytest.mark.parametrize("distance", sorted(pins("trace-json")))
def test_json_bytes_are_pinned(distance):
    """``repro trace --distance D --duration-ms 300 --json``, byte for byte
    (captured before the chain harnesses shared one builder)."""
    result = run_trace_experiment(
        TraceConfig(bottleneck_distance=int(distance), duration=0.3)
    )
    assert json_digest(result) == pins("trace-json")[distance]


def test_json_pin_has_teeth(monkeypatch):
    """CircuitStart's compensated window one cell larger, and nothing
    else (no spec field, so the config echo stays as it was), must move
    the ``--json`` digest of the chain verbs' pins."""
    from repro.core.circuitstart import CircuitStartController

    real = CircuitStartController._compensated_window
    monkeypatch.setattr(
        CircuitStartController, "_compensated_window",
        lambda self, now: real(self, now) + 1,
    )
    result = run_trace_experiment(TraceConfig(bottleneck_distance=1, duration=0.3))
    assert json_digest(result) != pins("trace-json")["1"]


@pytest.mark.parametrize("distance", sorted(pins("trace")))
def test_rendered_text_is_pinned(distance):
    """``repro trace --distance D --duration-ms 300`` as printed: the
    figure, its axis labels and the summary line (captured before
    ``repro report`` started printing this same rendering)."""
    result = run_trace_experiment(
        TraceConfig(bottleneck_distance=int(distance), duration=0.3)
    )
    assert render_digest("trace", result) == pins("trace")[distance]

