"""Interactive-latency bench: what the optimal window buys Tor users.

Run:  pytest benchmarks/bench_interactive.py --benchmark-only
"""

from __future__ import annotations

from repro import get_experiment
from repro.experiments import InteractiveConfig
from repro.report import format_table


def test_interactive_latency_under_bulk(benchmark, save_artifact):
    rows = benchmark.pedantic(
        get_experiment("interactive").run, args=(InteractiveConfig(),),
        rounds=1, iterations=1,
    ).rows
    by_kind = {row.kind: row for row in rows}

    cs = by_kind["circuitstart"]
    assert cs.steady_mean < by_kind["jumpstart"].steady_mean
    assert cs.steady_mean < by_kind["fixed"].steady_mean

    save_artifact(
        "interactive_latency.txt",
        format_table(
            ["controller", "steady mean [ms]", "steady max [ms]",
             "bulk delivered [MiB]"],
            [
                [r.kind, r.steady_mean * 1e3, r.steady_max * 1e3,
                 r.bulk_bytes_delivered / 2**20]
                for r in rows
            ],
            title="Interactive message latency under a competing bulk stream",
        ),
    )
