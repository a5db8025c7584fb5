"""Ablation benches A1-A4.

Each bench regenerates one design-choice table and asserts the expected
qualitative ordering.

Run:  pytest benchmarks/bench_ablations.py --benchmark-only
"""

from __future__ import annotations


from repro.experiments import (
    backpropagation_study,
    compensation_modes,
    gamma_sweep,
    initial_window_sweep,
)
from repro.report import format_table


def test_gamma_sweep(benchmark, save_artifact):
    rows = benchmark.pedantic(gamma_sweep, rounds=1, iterations=1)
    # Tighter thresholds exit no later and peak no higher.
    exits = [r.exit_time_ms for r in rows]
    peaks = [r.peak_cwnd_cells for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(exits, exits[1:]))
    assert all(a <= b for a, b in zip(peaks, peaks[1:]))
    save_artifact(
        "ablation_a1_gamma.txt",
        format_table(
            ["gamma", "exit [ms]", "peak", "final", "optimal", "error"],
            [
                [r.gamma, r.exit_time_ms, r.peak_cwnd_cells, r.final_cwnd_cells,
                 r.optimal_cwnd_cells, r.final_error_cells]
                for r in rows
            ],
            title="A1 - gamma sweep",
        ),
    )


def test_overshoot_compensation(benchmark, save_artifact):
    rows = benchmark.pedantic(compensation_modes, rounds=1, iterations=1)
    by_mode = {r.mode: r for r in rows}
    # No compensation leaves the largest post-exit window standing.
    assert (
        by_mode["none"].cwnd_after_exit_cells
        >= by_mode["acked"].cwnd_after_exit_cells
    )
    assert (
        by_mode["none"].cwnd_after_exit_cells
        >= by_mode["halve"].cwnd_after_exit_cells
    )
    # The paper's compensation ends closer to optimal than "none".
    assert abs(by_mode["acked"].final_error_cells) <= abs(
        by_mode["none"].final_error_cells
    ) + 2
    save_artifact(
        "ablation_a2_compensation.txt",
        format_table(
            ["mode", "peak", "after exit", "final", "optimal", "error"],
            [
                [r.mode, r.peak_cwnd_cells, r.cwnd_after_exit_cells,
                 r.final_cwnd_cells, r.optimal_cwnd_cells, r.final_error_cells]
                for r in rows
            ],
            title="A2 - compensation mode (bottleneck 3 hops away)",
        ),
    )


def test_initial_window(benchmark, save_artifact):
    rows = benchmark.pedantic(initial_window_sweep, rounds=1, iterations=1)
    exits = [r.exit_time_ms for r in rows]
    # Larger initial windows need fewer doubling rounds.
    assert exits[-1] < exits[0]
    save_artifact(
        "ablation_a3_initial_window.txt",
        format_table(
            ["initial cwnd", "exit [ms]", "final", "optimal"],
            [
                [r.initial_cwnd_cells, r.exit_time_ms, r.final_cwnd_cells,
                 r.optimal_cwnd_cells]
                for r in rows
            ],
            title="A3 - initial window sweep",
        ),
    )


def test_backpropagation(benchmark, save_artifact):
    rows = benchmark.pedantic(backpropagation_study, rounds=1, iterations=1)
    prediction = rows[0].backprop_prediction_cells
    for row in rows:
        assert abs(row.final_cwnd_cells - prediction) <= max(3, 0.25 * prediction)
    save_artifact(
        "ablation_a4_backpropagation.txt",
        format_table(
            ["hop", "final", "hop optimal", "prediction"],
            [
                [r.hop_label, r.final_cwnd_cells, r.optimal_cwnd_cells,
                 r.backprop_prediction_cells]
                for r in rows
            ],
            title="A4 - backpropagation (bottleneck at the last hop)",
        ),
    )
