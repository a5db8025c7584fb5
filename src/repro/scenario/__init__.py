"""The declarative scenario layer.

Every experiment of the reproduction boils down to "run a workload over
a generated Tor network and measure per-circuit timings".  This package
makes that sentence a data structure: a serializable
:class:`~repro.scenario.spec.Scenario` composed of pluggable *parts* —

* a **topology source** (:mod:`~repro.scenario.topology`) wrapping the
  seeded network generator (:mod:`~repro.scenario.netgen`);
* **workload classes** (:mod:`~repro.scenario.workloads`): bulk
  transfers and stream-scheduler-backed interactive fetches;
* an **arrival/churn process** (:mod:`~repro.scenario.churn`):
  one-shot waves or open-loop arrivals with departures/re-arrivals;
* **instrumentation probes** (:mod:`~repro.scenario.probes`):
  per-relay utilization and queue-depth time series.

Parts register by name (:mod:`~repro.scenario.parts`, mirroring the
experiment registry), round-trip through the structural JSON machinery
(:mod:`repro.serialize`), and compile into a shared
:class:`~repro.scenario.spec.ScenarioPlan` that is memoized by spec
hash (:mod:`~repro.scenario.cache`) so sweeps over the same network
never re-plan — optionally persisted across processes by the disk tier
(:class:`~repro.scenario.cache.DiskPlanCache`, wired to the CLI via
``--plan-cache`` / ``REPRO_PLAN_CACHE``).  The engine
(:mod:`~repro.scenario.engine`) replays one plan per controller kind.

Quickstart::

    from repro.scenario import (
        GeneratedTopology, BulkWorkload, InteractiveWorkload,
        OpenLoopChurn, UtilizationProbe, Scenario, run_scenario,
    )

    scenario = Scenario(
        topology=GeneratedTopology(force_bottleneck=True),
        workloads=(BulkWorkload(weight=0.7), InteractiveWorkload(weight=0.3)),
        churn=OpenLoopChurn(arrival_rate=4.0, horizon=6.0),
        probes=(UtilizationProbe(interval=0.25),),
        circuit_count=40,
    )
    result = run_scenario(scenario)
    result.median_improvement("bulk")          # with vs without
    result.probe_series("with", "utilization") # bottleneck over time

The ``scenario`` experiment registration lives one layer up, in
:mod:`repro.experiments.scenario`, so this package stays importable
without the experiment harnesses.
"""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "BulkWorkload",
    "ChurnProcess",
    "CircuitFailure",
    "ClosedLoopChurn",
    "DEFAULT_CACHE",
    "DiskPlanCache",
    "FailureRateProbe",
    "FaultEvent",
    "FaultInjector",
    "FaultProcess",
    "GeneratedNetwork",
    "GeneratedTopology",
    "GoodputProbe",
    "InteractiveWorkload",
    "KindRun",
    "LinkFaults",
    "NetworkConfig",
    "NetworkPlan",
    "NoChurn",
    "OpenLoopChurn",
    "PLAN_CACHE_ENV_VAR",
    "PlanCache",
    "PlannedCircuit",
    "Probe",
    "ProbeSeries",
    "QueueDepthProbe",
    "RelayChurnFaults",
    "RelayFailure",
    "RequestResponseWorkload",
    "SampleTable",
    "Scenario",
    "ScenarioCircuitSample",
    "ScenarioPart",
    "ScenarioPlan",
    "ScenarioResult",
    "TopologySource",
    "UtilizationProbe",
    "Workload",
    "WorkloadRun",
    "attached_disk_tier",
    "forced_bottleneck_paths",
    "instantiate_network",
    "list_parts",
    "plan_network",
    "plan_scenario",
    "register_part",
    "run_planned",
    "run_scenario",
    "spec_hash",
]


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), (
        "cache", "churn", "engine", "faults", "netgen", "parts", "probes",
        "spec", "topology", "workloads",
    ), name)
