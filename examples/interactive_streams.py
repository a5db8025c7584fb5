#!/usr/bin/env python3
"""Interactive messages sharing a circuit with a bulk download.

Tor is built for interactive use; the benefit of converging onto the
*optimal* congestion window (rather than any window that merely fills
the pipe) is that interactive cells don't sit behind a standing queue.
This example multiplexes a periodic 4-KiB interactive message with an
endless bulk stream over one circuit — cell-by-cell round-robin at the
source — and compares per-message latency across start-up schemes.

Run:  python examples/interactive_streams.py
"""

from __future__ import annotations

from repro import get_experiment
from repro.experiments import InteractiveConfig
from repro.report import format_table, render_series


def main() -> None:
    rows = get_experiment("interactive").run(InteractiveConfig()).rows

    series = []
    for row in rows:
        points = [(i * 0.15 * 1e3, latency * 1e3)
                  for i, latency in enumerate(row.latencies)]
        series.append((row.kind, points))
    print(
        render_series(
            series,
            x_label="message queue time [ms]",
            y_label="message latency [ms]",
            height=14,
        )
    )
    print()
    print(
        format_table(
            ["controller", "steady mean [ms]", "steady max [ms]",
             "bulk delivered [MiB]"],
            [
                [r.kind, r.steady_mean * 1e3, r.steady_max * 1e3,
                 r.bulk_bytes_delivered / 2**20]
                for r in rows
            ],
            title="Interactive latency under a competing bulk stream",
        )
    )
    best = min(rows, key=lambda r: r.steady_mean)
    print("\nlowest steady-state interactive latency: %s (%.1f ms)"
          % (best.kind, best.steady_mean * 1e3))


if __name__ == "__main__":
    main()
