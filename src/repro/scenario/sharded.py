"""Sharded execution of planned scenarios.

:func:`run_sharded` replays a planned scenario whose circuits fall into
several **disjoint components** with one simulator per component,
producing output **byte-identical to the classic single-simulator
engine at any shard count**, ``events_executed`` included.

Circuits that share no leaf (endpoint or relay) can never exchange a
single cell, so their connected components are embarrassingly parallel:
each component becomes a restricted sub-plan replayed on its own fresh
:class:`Simulator`, in worker processes when ``shards > 1``.  Because
the classic engine also gives every run a fresh simulator and component
plans preserve plan order, per-component replay is event-for-event
identical to the component's slice of a monolithic run, and merging
samples by plan index (and probe series by circuit id) reproduces the
classic result exactly — serial or pooled, cold or warm plan cache.

A plan that is one connected component (every forced-bottleneck plan
is: its circuits all meet at the bottleneck relay) and a plan with a
fault part run on the classic engine, :func:`run_planned`, whatever the
shard count.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..serialize import decode, encode
from ..sim.simulator import Simulator
from .cache import PlanCache
from .engine import (
    KindRun,
    ScenarioCircuitSample,
    ScenarioResult,
    _in_child_process,
    _make_sample,
    build_circuit_run,
    run_planned,
)
from .netgen import NetworkPlan, instantiate_network
from .probes import GoodputProbe, ProbeSeries
from .spec import PlannedCircuit, Scenario, ScenarioPlan, plan_scenario
from .workloads import WorkloadRun

__all__ = [
    "ShardingError",
    "partition_plan",
    "run_scenario_sharded",
    "run_sharded",
]


class ShardingError(RuntimeError):
    """The plan or scenario cannot be executed sharded as requested."""


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def partition_plan(plan: ScenarioPlan) -> List[List[PlannedCircuit]]:
    """Connected components of the plan's circuits over shared leaves.

    Two circuits land in the same component when they share any leaf
    (source, sink or relay) — directly or transitively.  Components are
    ordered by first appearance in plan order, and each component's
    circuits stay in plan order — both matter for deterministic merging.
    """
    parent: Dict[str, str] = {}

    def find(leaf: str) -> str:
        root = leaf
        while parent[root] != root:
            root = parent[root]
        while parent[leaf] != root:  # path compression
            parent[leaf], leaf = root, parent[leaf]
        return root

    for planned in plan.circuits:
        leaves = _circuit_leaves(planned)
        for leaf in leaves:
            parent.setdefault(leaf, leaf)
        first = find(leaves[0])
        for leaf in leaves[1:]:
            parent[find(leaf)] = first

    components: List[List[PlannedCircuit]] = []
    index_of: Dict[str, int] = {}
    for planned in plan.circuits:
        root = find(planned.source)
        slot = index_of.get(root)
        if slot is None:
            slot = index_of[root] = len(components)
            components.append([])
        components[slot].append(planned)
    return components


def _circuit_leaves(planned: PlannedCircuit) -> List[str]:
    """Every leaf the circuit touches: source, sink and relays."""
    return [planned.source, planned.sink, *planned.relays]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_scenario_sharded(
    scenario: Scenario,
    kinds: Optional[Sequence[str]] = None,
    cache: Optional[PlanCache] = None,
    shards: int = 1,
) -> ScenarioResult:
    """Plan (or fetch the cached plan) and run *scenario* sharded."""
    return run_sharded(
        plan_scenario(scenario, cache=cache), kinds=kinds, shards=shards
    )


def run_sharded(
    plan: ScenarioPlan,
    kinds: Optional[Sequence[str]] = None,
    shards: int = 1,
) -> ScenarioResult:
    """Replay *plan* sharded; byte-identical to :func:`run_planned`.

    *shards* caps the worker-process pool the plan's disjoint
    components run on; it never changes the result, only how it is
    computed.
    """
    if not isinstance(shards, int) or shards < 1:
        raise ValueError("shards must be >= 1, got %r" % (shards,))
    scenario = plan.scenario
    run_kinds = list(kinds) if kinds is not None else list(scenario.kinds)

    if scenario.faults:
        # The fault plane is whole-network state (relay liveness, link
        # loss models, failure cascades across shard boundaries); the
        # classic engine runs it.  Correctness over parallelism.
        return run_planned(plan, kinds=run_kinds)

    components = partition_plan(plan)
    if len(components) > 1:
        _check_disjoint_probes(scenario)
        return _run_disjoint(plan, components, run_kinds, shards)

    # One connected component: nothing to run apart.
    return run_planned(plan, kinds=run_kinds)


# ---------------------------------------------------------------------------
# Disjoint-component mode
# ---------------------------------------------------------------------------


def _check_disjoint_probes(scenario: Scenario) -> None:
    for probe in scenario.probes:
        if not isinstance(probe, GoodputProbe):
            raise ShardingError(
                "probe %r is not supported in disjoint sharded mode: its "
                "samplers would observe only one component's slice of the "
                "network" % probe.part_name
            )


def _component_subplan(
    plan: ScenarioPlan, circuits: Sequence[PlannedCircuit]
) -> ScenarioPlan:
    """Restrict *plan* to one component's leaves and circuits.

    Name lists and link-spec dicts keep the full plan's order, so the
    sub-network instantiates its nodes in the same relative order as
    the monolithic network — circuit construction then draws exactly
    the same objects it would in a full run.
    """
    leaves = set()
    for planned in circuits:
        leaves.update(_circuit_leaves(planned))
    net = plan.network
    sub_network = NetworkPlan(
        config=net.config,
        hub_name=net.hub_name,
        relay_names=[n for n in net.relay_names if n in leaves],
        client_names=[n for n in net.client_names if n in leaves],
        server_names=[n for n in net.server_names if n in leaves],
        leaves={n: spec for n, spec in net.leaves.items() if n in leaves},
        relay_specs={
            n: spec for n, spec in net.relay_specs.items() if n in leaves
        },
    )
    bottleneck = (
        plan.bottleneck_relay if plan.bottleneck_relay in leaves else None
    )
    return ScenarioPlan(
        scenario=plan.scenario,
        spec_hash=plan.spec_hash,
        network=sub_network,
        bottleneck_relay=bottleneck,
        circuits=list(circuits),
    )


def _run_component_kind(plan: ScenarioPlan, kind: str):
    """One kind's run of one component sub-plan, probe series bucketed.

    The classic :func:`~repro.scenario.engine._run_kind` with one
    difference: probe series stay grouped per probe (a bucket per
    scenario probe), so the merge can interleave components' series
    without guessing which probe produced what.
    """
    scenario = plan.scenario
    sim = Simulator()
    network = instantiate_network(plan.network, sim)
    runs = [
        build_circuit_run(scenario, planned, kind, sim, network)
        for planned in plan.circuits
    ]
    if scenario.churn.departures:
        for run in runs:
            run.enable_departure()
    context = KindRun(sim, network, plan.bottleneck_relay, runs)
    buckets = [probe.install(sim, context) for probe in scenario.probes]

    sim.run_until(scenario.max_sim_time)

    _check_finished(plan, kind, runs)
    samples = [
        _make_sample(scenario, planned, run)
        for planned, run in zip(plan.circuits, runs)
    ]
    series = [[c.series() for c in bucket] for bucket in buckets]
    return samples, series, sim.events_executed


def _check_finished(
    plan: ScenarioPlan, kind: str, runs: Sequence[WorkloadRun]
) -> None:
    scenario = plan.scenario
    unfinished = [
        planned
        for planned, run in zip(plan.circuits, runs)
        if not run.done
    ]
    if unfinished:
        raise RuntimeError(
            "%d/%d circuits did not finish within %.1fs (kind=%s); first: "
            "circuit %d (%s)"
            % (
                len(unfinished),
                len(plan.circuits),
                scenario.max_sim_time,
                kind,
                unfinished[0].index + 1,
                scenario.workloads[unfinished[0].workload].part_name,
            )
        )


def _execute_component(payload: Tuple[Any, Tuple[str, ...]]) -> Dict[str, Any]:
    """Pool worker: run one encoded component sub-plan, every kind."""
    plan_data, kinds = payload
    plan = decode(ScenarioPlan, plan_data)
    out: Dict[str, Any] = {}
    for kind in kinds:
        samples, buckets, events = _run_component_kind(plan, kind)
        out[kind] = {
            "samples": [encode(s) for s in samples],
            "buckets": [[encode(s) for s in bucket] for bucket in buckets],
            "events": events,
        }
    return out


def _series_circuit_id(series: ProbeSeries) -> int:
    """Sort key for merged goodput series: the target's circuit id."""
    return int(series.target.rsplit("-", 1)[1])


def _run_disjoint(
    plan: ScenarioPlan,
    components: List[List[PlannedCircuit]],
    kinds: List[str],
    shards: int,
) -> ScenarioResult:
    scenario = plan.scenario
    payloads = [
        (encode(_component_subplan(plan, comp)), tuple(kinds))
        for comp in components
    ]
    workers = min(shards, len(payloads))
    if workers <= 1 or _in_child_process():
        # Serial fallback (shards=1, or already inside a pool worker):
        # the identical payload -> run -> encode round trip, so the
        # result is byte-identical to the pooled path.
        outputs = [_execute_component(p) for p in payloads]
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            outputs = pool.map(_execute_component, payloads)

    samples: Dict[str, List[ScenarioCircuitSample]] = {}
    probes: Dict[str, List[ProbeSeries]] = {}
    events: Dict[str, int] = {}
    for kind in kinds:
        merged = [
            decode(ScenarioCircuitSample, data)
            for out in outputs
            for data in out[kind]["samples"]
        ]
        merged.sort(key=lambda s: s.index)
        samples[kind] = merged
        buckets: List[List[ProbeSeries]] = [[] for __ in scenario.probes]
        for out in outputs:
            for slot, bucket in enumerate(out[kind]["buckets"]):
                buckets[slot].extend(decode(ProbeSeries, d) for d in bucket)
        for bucket in buckets:
            bucket.sort(key=_series_circuit_id)
        probes[kind] = [series for bucket in buckets for series in bucket]
        events[kind] = sum(out[kind]["events"] for out in outputs)
    return ScenarioResult(
        scenario=scenario,
        spec_hash=plan.spec_hash,
        bottleneck_relay=plan.bottleneck_relay,
        samples=samples,
        probes=probes,
        events_executed=events,
    )
