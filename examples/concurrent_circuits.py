#!/usr/bin/env python3
"""Figure 1 (lower panel): download-time CDF over concurrent circuits.

Generates a random star-topology Tor network, runs concurrent
fixed-size downloads over bandwidth-weighted 3-relay circuits — once
with CircuitStart at every hop, once with plain BackTap ("without") —
and prints the two CDFs plus the headline statistics.

Run:   python examples/concurrent_circuits.py           (quick: 16 circuits)
       python examples/concurrent_circuits.py --full    (paper: 50 circuits)
"""

from __future__ import annotations

import sys

from repro import get_experiment
from repro.analysis import summarize
from repro.experiments import CdfConfig, NetworkConfig
from repro.report import format_table, render_cdf_pair
from repro.units import kib


def main() -> None:
    full = "--full" in sys.argv
    if full:
        config = CdfConfig()  # the paper's setup: 50 concurrent circuits
    else:
        config = CdfConfig(
            circuit_count=16,
            payload_bytes=kib(300),
            network=NetworkConfig(relay_count=24, client_count=16, server_count=16),
        )

    print(
        "running %d concurrent %d-KiB downloads over %d relays "
        "(with vs without CircuitStart)..."
        % (config.circuit_count, config.payload_bytes // 1024,
           config.network.relay_count)
    )
    result = get_experiment("cdf").run(config)

    with_kind, without_kind = config.kinds
    print()
    print(
        render_cdf_pair(
            "with CircuitStart",
            result.cdf(with_kind),
            "without CircuitStart",
            result.cdf(without_kind),
        )
    )
    print()

    rows = []
    for kind in config.kinds:
        s = summarize(result.ttlb[kind])
        rows.append([kind, s.median, s.p10, s.p90, s.maximum])
    print(
        format_table(
            ["controller", "median [s]", "p10 [s]", "p90 [s]", "max [s]"],
            rows,
            title="Time to last byte",
        )
    )
    print()
    print("median improvement : %.3f s" % result.median_improvement)
    print("max CDF gap        : %.3f s   (paper: up to ~0.5 s)" % result.max_improvement)
    print("dominance fraction : %.2f" % result.dominance)


if __name__ == "__main__":
    main()
