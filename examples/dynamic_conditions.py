#!/usr/bin/env python3
"""Future-work demo: reacting to mid-flow bandwidth changes.

The paper's conclusion promises to extend CircuitStart beyond the
initial phase.  This example runs that extension: a circuit settles
against a 2 Mbit/s bottleneck, then at t = 1 s the bottleneck link is
upgraded to 10 Mbit/s.  The dynamic controller re-enters the
CircuitStart ramp and reaches the new optimum several times faster than
the published (startup-only) controller waiting on Vegas's one cell per
round.

Run:  python examples/dynamic_conditions.py
"""

from __future__ import annotations

from repro import get_experiment
from repro.experiments import DynamicConfig
from repro.report import format_table, render_series


def main() -> None:
    result = get_experiment("dynamic").run(DynamicConfig())
    config = result.config

    series = [
        (kind, [(t * 1e3, v) for t, v in result.traces[kind].samples])
        for kind in config.controller_kinds
    ]
    print(
        render_series(
            series,
            x_label="time [ms]  (rate change at %d ms)" % (config.change_time * 1e3),
            y_label="source cwnd [cells]",
            hline=float(result.optimal_after_cells),
            hline_label="optimal after change",
        )
    )
    print()

    rows = []
    for kind in config.controller_kinds:
        adapt = result.time_to_adapt(kind)
        rows.append(
            [
                kind,
                adapt * 1e3 if adapt is not None else None,
                result.bytes_after_change[kind] // 1024,
                result.reentries[kind],
            ]
        )
    print(
        format_table(
            ["controller", "time to adapt [ms]", "bytes after change [KiB]",
             "startup re-entries"],
            rows,
            title="Bottleneck %s -> %s at t=%.1fs (optimal window %d -> %d cells)"
            % (
                config.bottleneck_rate_before,
                config.bottleneck_rate_after,
                config.change_time,
                result.optimal_before_cells,
                result.optimal_after_cells,
            ),
        )
    )


if __name__ == "__main__":
    main()
