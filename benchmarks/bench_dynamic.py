"""Future-work bench: recovery after a mid-flow bandwidth change.

Run:  pytest benchmarks/bench_dynamic.py --benchmark-only
"""

from __future__ import annotations

from repro import get_experiment
from repro.experiments import DynamicConfig
from repro.report import format_table


def test_bandwidth_drop_recovery(benchmark, save_artifact):
    result = benchmark.pedantic(
        get_experiment("dynamic").run, args=(DynamicConfig(),),
        rounds=1, iterations=1,
    )
    adapt_dynamic = result.time_to_adapt("dynamic")
    adapt_static = result.time_to_adapt("circuitstart")

    # The dynamic extension re-ramps much faster than Vegas's crawl.
    assert adapt_dynamic is not None and adapt_static is not None
    assert adapt_dynamic < adapt_static / 2
    assert result.reentries["dynamic"] >= 1
    assert result.reentries["circuitstart"] == 0

    rows = []
    for kind in result.config.controller_kinds:
        adapt = result.time_to_adapt(kind)
        rows.append(
            [kind, adapt * 1e3 if adapt is not None else None,
             result.bytes_after_change[kind] // 1024, result.reentries[kind]]
        )
    save_artifact(
        "futurework_dynamic.txt",
        format_table(
            ["controller", "adapt [ms]", "bytes after [KiB]", "re-entries"],
            rows,
            title="Mid-flow rate change %d -> %d cells optimal"
            % (result.optimal_before_cells, result.optimal_after_cells),
        ),
    )
