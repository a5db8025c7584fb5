#!/usr/bin/env python3
"""Batch sweeps: many specs, worker processes, one merged JSON result.

Sweeps the Figure-1a/b scenario over every bottleneck position and the
γ exit threshold in one ``run_batch`` call, then reads the merged
structured output.  The same sweep runs from the shell via::

    repro batch specs.json --workers 4 --out merged.json

Parallel and serial execution produce byte-identical output, so the
worker count is purely a wall-clock knob.

Run:  PYTHONPATH=src python examples/batch_sweep.py
"""

from __future__ import annotations

import json

from repro import BatchJob, run_batch
from repro.experiments import TraceConfig
from repro.units import seconds


def main() -> None:
    base = TraceConfig(duration=seconds(0.4))
    jobs = [
        BatchJob(
            "trace",
            TraceConfig(
                bottleneck_distance=distance,
                duration=base.duration,
                transport=base.transport.with_(gamma=gamma),
            ),
            label="distance=%d gamma=%g" % (distance, gamma),
        )
        for distance in (1, 2, 3)
        for gamma in (2.0, 4.0)
    ]

    batch = run_batch(jobs, workers=2)

    print("%-22s %6s %6s %8s" % ("job", "final", "optimal", "exit[ms]"))
    for item in batch.items:
        result = item.result_object()
        exit_ms = (
            "%.1f" % (result.startup_exit_time * 1e3)
            if result.startup_exit_time is not None
            else "-"
        )
        print("%-22s %6d %6d %8s" % (
            item.label, result.final_cwnd_cells,
            result.optimal_cwnd_cells, exit_ms))

    # The merged result is one JSON document.
    blob = json.dumps(batch.to_dict(), sort_keys=True)
    print("\nmerged output: %d jobs, %d KiB of JSON" % (
        len(batch.items), len(blob) // 1024))


if __name__ == "__main__":
    main()
