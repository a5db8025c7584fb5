#!/usr/bin/env python3
"""Figure 1 (upper panels): cwnd traces vs bottleneck distance.

Reproduces both upper panels of the paper's Figure 1: the source's
congestion window over time with the bottleneck one hop away and three
hops away, each against the analytically optimal window (dashed line),
for CircuitStart and for the "without" baseline (plain BackTap).

Run:  python examples/bottleneck_trace.py
"""

from __future__ import annotations


from repro import get_experiment
from repro.experiments import TraceConfig
from repro.report import format_table, render_trace
from repro.units import seconds


def show_panel(distance: int, kind: str) -> dict:
    config = TraceConfig(
        bottleneck_distance=distance,
        controller_kind=kind,
        duration=seconds(0.4),
    )
    result = get_experiment("trace").run(config)
    cell_kb = config.transport.cell_size / 1000.0
    print("--- distance to bottleneck: %d hop(s), %s ---" % (distance, kind))
    print(
        render_trace(
            result.trace_kb_ms(),
            x_label="time [ms]",
            y_label="source cwnd [KB]",
            hline=result.optimal_cwnd_cells * cell_kb,
            hline_label="optimal",
            height=14,
        )
    )
    print()
    return dict(
        distance=distance,
        kind=kind,
        exit_ms=(
            result.startup_exit_time * 1e3
            if result.startup_exit_time is not None
            else None
        ),
        peak=result.peak_cwnd_cells,
        final=result.final_cwnd_cells,
        optimal=result.optimal_cwnd_cells,
    )


def main() -> None:
    rows = []
    for distance in (1, 3):
        for kind in ("circuitstart", "without"):
            rows.append(show_panel(distance, kind))

    print(
        format_table(
            ["distance", "controller", "exit [ms]", "peak [cells]",
             "final [cells]", "optimal [cells]"],
            [
                [r["distance"], r["kind"], r["exit_ms"], r["peak"],
                 r["final"], r["optimal"]]
                for r in rows
            ],
            title="Figure 1 (upper): convergence summary",
        )
    )


if __name__ == "__main__":
    main()
