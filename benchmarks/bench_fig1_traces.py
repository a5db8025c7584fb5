"""Figure 1, upper panels: source cwnd traces (F1a, F1b).

Regenerates the paper's two trace panels and asserts the qualitative
claims: doubling ramp, γ-exit within the plotted window, overshoot
compensated close to the model-optimal window, and convergence that is
independent of the bottleneck's distance from the source.

Run:  pytest benchmarks/bench_fig1_traces.py --benchmark-only
"""

from __future__ import annotations

from repro import get_experiment
from repro.experiments import TraceConfig
from repro.report import format_table, render_trace
from repro.units import seconds


def run_panel(distance: int) -> object:
    return get_experiment("trace").run(
        TraceConfig(bottleneck_distance=distance, duration=seconds(1.0))
    )


def test_trace_experiment_wall_time(benchmark):
    """Wall-clock cost of one Figure-1a style run (400 ms simulated)."""
    result = benchmark(get_experiment("trace").run, TraceConfig())
    assert result.startup_exit_time is not None


def check_and_save(result, name, save_artifact):
    config = result.config
    cell_kb = config.transport.cell_size / 1000.0

    # --- the paper's qualitative claims -------------------------------
    # Exponential ramp from two cells.
    assert result.trace.values[0] == 2.0
    assert result.trace.values[1] == 4.0
    # The ramp ends within the plotted 300 ms.
    assert result.startup_exit_time is not None
    assert result.startup_exit_time < 0.3
    # Temporary overshoot, then compensation toward optimal.
    assert result.peak_cwnd_cells > result.optimal_cwnd_cells
    assert result.final_cwnd_cells < result.peak_cwnd_cells
    assert abs(result.final_error_cells) <= max(3, 0.25 * result.optimal_cwnd_cells)

    figure = render_trace(
        result.trace_kb_ms(),
        x_label="time [ms]",
        y_label="source cwnd [KB]",
        hline=result.optimal_cwnd_cells * cell_kb,
        hline_label="optimal",
    )
    summary = format_table(
        ["exit [ms]", "peak [cells]", "final [cells]", "optimal [cells]"],
        [[result.startup_exit_time * 1e3, result.peak_cwnd_cells,
          result.final_cwnd_cells, result.optimal_cwnd_cells]],
    )
    save_artifact(name, figure + "\n\n" + summary)
    return result


def test_fig1a_bottleneck_1hop(benchmark, save_artifact):
    result = benchmark.pedantic(run_panel, args=(1,), rounds=1, iterations=1)
    check_and_save(result, "fig1a_trace_1hop.txt", save_artifact)


def test_fig1b_bottleneck_3hops(benchmark, save_artifact):
    result = benchmark.pedantic(run_panel, args=(3,), rounds=1, iterations=1)
    check_and_save(result, "fig1b_trace_3hops.txt", save_artifact)


def test_fig1ab_distance_independence(benchmark, save_artifact):
    """CircuitStart adjusts the window independently of the
    bottleneck's location (the joint claim of the two panels)."""

    def both():
        return run_panel(1), run_panel(3)

    near, far = benchmark.pedantic(both, rounds=1, iterations=1)
    assert near.optimal_cwnd_cells == far.optimal_cwnd_cells
    assert abs(near.final_cwnd_cells - far.final_cwnd_cells) <= max(
        2, 0.2 * near.optimal_cwnd_cells
    )
    assert abs(near.startup_exit_time - far.startup_exit_time) < 0.06
    save_artifact(
        "fig1ab_distance_independence.txt",
        format_table(
            ["distance", "exit [ms]", "final [cells]", "optimal [cells]"],
            [
                [1, near.startup_exit_time * 1e3, near.final_cwnd_cells,
                 near.optimal_cwnd_cells],
                [3, far.startup_exit_time * 1e3, far.final_cwnd_cells,
                 far.optimal_cwnd_cells],
            ],
            title="Convergence vs bottleneck distance",
        ),
    )
