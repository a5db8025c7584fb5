"""Friendliness bench: impact of start-up schemes on background traffic.

Quantifies the paper's design goal ("avoiding aggressive traffic
patterns"): the added p95 delay and the bottleneck queue spike each
start-up scheme imposes on a long-lived background flow.

Run:  pytest benchmarks/bench_friendliness.py --benchmark-only
"""

from __future__ import annotations

from repro import get_experiment
from repro.experiments import FriendlinessConfig
from repro.report import format_table


def test_background_friendliness(benchmark, save_artifact):
    rows = benchmark.pedantic(
        get_experiment("friendliness").run, args=(FriendlinessConfig(),),
        rounds=1, iterations=1,
    ).rows
    by_kind = {row.kind: row for row in rows}

    cs = by_kind["circuitstart"]
    js = by_kind["jumpstart"]
    assert cs.added_delay_p95 < js.added_delay_p95 / 2
    assert cs.peak_queue_packets < js.peak_queue_packets / 2

    save_artifact(
        "friendliness.txt",
        format_table(
            ["controller", "baseline p95 [ms]", "loaded p95 [ms]",
             "added p95 [ms]", "peak queue [pkts]"],
            [
                [r.kind, r.baseline_p95 * 1e3, r.loaded_p95 * 1e3,
                 r.added_delay_p95 * 1e3, r.peak_queue_packets]
                for r in rows
            ],
            title="Background-traffic impact of start-up schemes",
        ),
    )
