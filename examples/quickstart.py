#!/usr/bin/env python3
"""Quickstart: the unified experiment API in one page.

Runs the paper's Figure-1a scenario through the experiment registry —
``get_experiment("trace").run(TraceConfig(...))`` — and prints:

* the source's congestion-window trace (the paper's Figure-1a panel),
* the model's optimal window (the dashed line), and
* proof that the result serializes: a JSON round-trip via
  ``result.to_dict()`` / ``TraceResult.from_dict()``.

Every experiment speaks this API (``repro list`` enumerates them), so
the same four lines run the CDF comparison, the ablations, or a batch
sweep (see ``examples/batch_sweep.py``).

Run:  PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

import json

from repro import get_experiment
from repro.experiments import TraceConfig, TraceResult
from repro.report import render_trace
from repro.units import mib, seconds


def main() -> None:
    # One registry lookup; the spec is a frozen, serializable dataclass.
    experiment = get_experiment("trace")
    config = TraceConfig(
        bottleneck_distance=1,     # the slow link sits one hop from the source
        payload_bytes=mib(1),
        duration=seconds(0.4),
    )
    result = experiment.run(config)

    cell_kb = config.transport.cell_size / 1000.0
    print(
        render_trace(
            result.trace_kb_ms(),
            x_label="time [ms]",
            y_label="source cwnd [KB]",
            hline=result.optimal_cwnd_cells * cell_kb,
            hline_label="optimal",
        )
    )
    print()
    print("optimal cwnd      : %d cells (%.1f KB)" % (
        result.optimal_cwnd_cells, result.optimal.window_bytes / 1000))
    print("final source cwnd : %d cells" % result.final_cwnd_cells)
    print("startup exited at : %.1f ms" % (result.startup_exit_time * 1e3))

    # Results are plain data: JSON out, typed object back in.
    payload = json.dumps(result.to_dict())
    restored = TraceResult.from_dict(json.loads(payload))
    assert restored == result
    print("JSON round-trip   : %d bytes, equal=%r" % (
        len(payload), restored == result))


if __name__ == "__main__":
    main()
