#!/usr/bin/env python3
"""The adversity study: does the start-up advantage survive faults?

Sweeps a small (link loss rate x relay MTTF) grid.  Each grid point
runs the same churn scenario under both controller kinds against an
identical fault schedule — seeded Bernoulli loss on every relay access
link, plus relay kill/restart events drawn once into the scenario plan
— and reports steady-state start-up improvement, circuit failure rate
and tail TTFB per point.  The loss-0 / MTTF-infinity corner runs the
exact scenario a same-seed churn-study point runs, so the adversity
columns are directly comparable to the paper's clean-network figures.
The same sweep runs from the shell via::

    repro adversity-study --loss-rates 0,0.02 --mttfs 0,4 --rate 2 \
        --workers 2 --json

Run:  PYTHONPATH=src python examples/adversity_study.py
"""

from __future__ import annotations

from repro import RunContext, get_experiment
from repro.experiments.adversity import AdversityStudyConfig
from repro.experiments.netgen import NetworkConfig
from repro.units import kib


def main() -> None:
    spec = AdversityStudyConfig(
        loss_rates=(0.0, 0.02),      # clean corner + 2% per-link loss
        relay_mttfs=(0.0, 4.0),      # 0 = no relay churn (MTTF infinity)
        arrival_rate=2.0,
        circuit_count=8,
        bulk_payload_bytes=kib(100),
        interactive_payload_bytes=kib(10),
        start_window=1.0,
        horizon=4.0,
        network=NetworkConfig(relay_count=10, client_count=8,
                              server_count=8),
    )

    experiment = get_experiment("adversity-study")
    # How the sweep executes rides beside the spec, never on it.
    study = experiment.run(spec, RunContext(workers=2))

    print(experiment.render(study))

    # The structured result: one row per (loss, MTTF, kind) ...
    for loss, mttf in spec.grid():
        row = study.point(loss, mttf, "with")
        print("loss=%5.3f mttf=%3s  fail rate %.3f  retransmissions %4d"
              % (loss, "inf" if mttf == 0.0 else "%g" % mttf,
                 row.failure_rate, row.retransmissions))

    # ... and one improvement row per grid point (with vs without).
    corner = study.improvement(0.0, 0.0)
    print("clean-corner TTFB improvement: %s s (== same-seed churn-study)"
          % corner.ttfb_improvement)


if __name__ == "__main__":
    main()
