"""Figure 1, lower panel: download-time CDF over 50 concurrent circuits.

Regenerates the paper's CDF comparison ("with CircuitStart" vs
"without" = plain BackTap) at full scale: 50 concurrent fixed-size
downloads over a randomly generated star network of Tor relays.

Asserted shape (paper: improvement "by up to 0.5 seconds"):

* the "with" CDF stochastically dominates the "without" CDF on the
  bulk of the quantile range;
* the maximum horizontal gap is a substantial fraction of a second;
* the median improves.

Run:  pytest benchmarks/bench_fig1_cdf.py --benchmark-only
"""

from __future__ import annotations

from repro import get_experiment
from repro.analysis import summarize
from repro.experiments import CdfConfig
from repro.report import format_table, render_cdf_pair
from repro.units import kib


def test_fig1c_download_time_cdf(benchmark, save_artifact):
    config = CdfConfig()  # the paper's setup: 50 concurrent circuits
    result = benchmark.pedantic(
        get_experiment("cdf").run, args=(config,), rounds=1, iterations=1
    )

    with_kind, without_kind = config.kinds
    # --- the paper's qualitative claims -------------------------------
    assert result.median_improvement > 0.1
    assert 0.2 < result.max_improvement < 1.5
    assert result.dominance >= 0.9

    figure = render_cdf_pair(
        "with CircuitStart", result.cdf(with_kind),
        "without CircuitStart", result.cdf(without_kind),
    )
    rows = []
    for kind in config.kinds:
        s = summarize(result.ttlb[kind])
        rows.append([kind, s.median, s.p10, s.p90, s.maximum])
    table = format_table(
        ["controller", "median [s]", "p10 [s]", "p90 [s]", "max [s]"],
        rows,
        title="Time to last byte over %d circuits" % config.circuit_count,
    )
    stats = (
        "median improvement : %.3f s\n"
        "max CDF gap        : %.3f s (paper: up to ~0.5 s)\n"
        "dominance fraction : %.2f\n"
        "fairness (Jain)    : with=%.3f without=%.3f"
        % (
            result.median_improvement,
            result.max_improvement,
            result.dominance,
            result.fairness(with_kind),
            result.fairness(without_kind),
        )
    )
    # A faster start must not starve competing circuits.
    assert result.fairness(with_kind) > 0.5
    save_artifact("fig1c_cdf.txt", figure + "\n\n" + table + "\n\n" + stats)


def test_fig1c_reduced_payload_sensitivity(benchmark, save_artifact):
    """Smaller downloads shrink but do not erase the gap (the startup
    phase is a larger fraction of a shorter transfer, but short
    transfers finish inside the ramp)."""
    config = CdfConfig(circuit_count=25, payload_bytes=kib(150))
    result = benchmark.pedantic(
        get_experiment("cdf").run, args=(config,), rounds=1, iterations=1
    )
    assert result.median_improvement > 0
    assert result.dominance >= 0.7
    save_artifact(
        "fig1c_sensitivity_150kib.txt",
        "median improvement %.3f s, max gap %.3f s, dominance %.2f"
        % (result.median_improvement, result.max_improvement, result.dominance),
    )
