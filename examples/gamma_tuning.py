#!/usr/bin/env python3
"""Ablations over CircuitStart's design choices.

Prints the four ablation tables (README, "Experiments → paper artifacts"):

* A1 — the Vegas exit threshold γ (ramp time vs overshoot);
* A2 — overshoot compensation vs traditional halving vs none;
* A3 — the initial window (paper: 2 cells);
* A4 — backpropagation: per-hop windows vs the propagated minimum.

Run:  python examples/gamma_tuning.py
"""

from __future__ import annotations

from repro.experiments import (
    backpropagation_study,
    compensation_modes,
    gamma_sweep,
    initial_window_sweep,
)
from repro.report import format_table


def main() -> None:
    print(
        format_table(
            ["gamma", "exit [ms]", "peak [cells]", "final [cells]",
             "optimal [cells]", "error [cells]"],
            [
                [r.gamma, r.exit_time_ms, r.peak_cwnd_cells,
                 r.final_cwnd_cells, r.optimal_cwnd_cells, r.final_error_cells]
                for r in gamma_sweep()
            ],
            title="A1 - exit threshold sweep (bottleneck 1 hop away)",
        )
    )
    print()
    print(
        format_table(
            ["mode", "peak", "after exit", "final", "optimal", "error"],
            [
                [r.mode, r.peak_cwnd_cells, r.cwnd_after_exit_cells,
                 r.final_cwnd_cells, r.optimal_cwnd_cells, r.final_error_cells]
                for r in compensation_modes()
            ],
            title="A2 - overshoot compensation (bottleneck 3 hops away)",
        )
    )
    print()
    print(
        format_table(
            ["initial cwnd", "exit [ms]", "final", "optimal"],
            [
                [r.initial_cwnd_cells, r.exit_time_ms, r.final_cwnd_cells,
                 r.optimal_cwnd_cells]
                for r in initial_window_sweep()
            ],
            title="A3 - initial window",
        )
    )
    print()
    print(
        format_table(
            ["hop", "final [cells]", "hop optimal", "backprop prediction"],
            [
                [r.hop_label, r.final_cwnd_cells, r.optimal_cwnd_cells,
                 r.backprop_prediction_cells]
                for r in backpropagation_study()
            ],
            title="A4 - backpropagation of the minimum window",
        )
    )


if __name__ == "__main__":
    main()
