#!/usr/bin/env python3
"""Network scale: many mixed circuits sharing relays and one bottleneck.

Drives the ``netscale`` experiment end to end: a seeded star network of
Tor relays, dozens of concurrent circuits (a bulk/interactive mix)
whose paths all cross the slowest relay, once with CircuitStart and
once with BackTap's native start-up.  Then:

* a **churn variant** — open-loop re-arrivals with departures, plus a
  per-relay utilization probe, so the bottleneck is observed over time
  at steady state rather than during one start-up wave;
* a **scale sweep** through the batch API.  All jobs share one
  ``NetworkConfig``, so after the first job plans, every other job hits
  the planned-scenario cache (watch the counters it returns).

The same scenarios run from the shell via::

    repro netscale --circuits 60 --relays 30
    repro netscale --circuits 60 --relays 30 --churn 4 --churn-horizon 8
    repro batch netscale_specs.json --workers 4 --plan   # cost preview
    repro batch netscale_specs.json --workers 4          # the sweep below

Run:  PYTHONPATH=src python examples/network_scale.py
"""

from __future__ import annotations

from repro import BatchJob, get_experiment, run_batch
from repro.experiments import NetScaleConfig, NetworkConfig
from repro.experiments.netscale import BULK, INTERACTIVE
from repro.scenario import OpenLoopChurn, UtilizationProbe
from repro.units import kib


def scenario(circuits: int, **overrides) -> NetScaleConfig:
    return NetScaleConfig(
        circuit_count=circuits,
        bulk_payload_bytes=kib(150),
        interactive_payload_bytes=kib(20),
        network=NetworkConfig(relay_count=16, client_count=16, server_count=16),
        **overrides,
    )


def main() -> None:
    # --- one full run, rendered like the CLI would --------------------
    config = scenario(circuits=30)
    result = get_experiment("netscale").run(config)
    print(get_experiment("netscale").render(result))
    print()

    # --- churn + utilization-over-time variant -------------------------
    churned = scenario(
        circuits=30,
        churn=OpenLoopChurn(start_window=2.0, arrival_rate=4.0, horizon=6.0),
        probes=(UtilizationProbe(interval=0.25),),
    )
    churn_result = get_experiment("netscale").run(churned)
    with_kind = churned.kinds[0]
    steady = churn_result.steady_samples(with_kind)
    print("Churn: %d circuits total, %d re-arrivals, %d departed, "
          "%d at steady state" % (
              len(churn_result.samples[with_kind]),
              sum(1 for s in churn_result.samples[with_kind]
                  if s.generation > 0),
              sum(1 for s in churn_result.samples[with_kind]
                  if s.departed_at is not None),
              len(steady)))
    for series in churn_result.utilization_series(with_kind):
        print("bottleneck %s utilization: mean %.1f%%, peak %.1f%% "
              "(%d samples at %.2fs grid)" % (
                  series.target, 100 * series.mean, 100 * series.peak,
                  len(series.values), churned.probes[0].interval))
    print()

    # --- scale sweep via the batch API ---------------------------------
    # Same network in every job -> the planned-scenario cache shares one
    # NetworkPlan across the sweep (see the counters below).
    counts = (10, 20, 40)
    jobs = [
        BatchJob("netscale", scenario(n), label="circuits=%d" % n)
        for n in counts
    ]
    batch = run_batch(jobs)

    print("CircuitStart benefit vs. concurrent load on one bottleneck relay")
    print("%-14s %18s %18s %14s" % (
        "job", "bulk dTTLB [s]", "inter. dTTLB [s]", "events/kind"))
    for item in batch.items:
        sweep_result = item.result_object()
        kinds = sweep_result.config.kinds
        print("%-14s %18.3f %18.3f %14d" % (
            item.label,
            sweep_result.median_improvement(BULK),
            sweep_result.median_improvement(INTERACTIVE),
            sweep_result.events_executed[kinds[0]],
        ))
    print("plan cache over the sweep: %s" % (batch.plan_cache,))


if __name__ == "__main__":
    main()
