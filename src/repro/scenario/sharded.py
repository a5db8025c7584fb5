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
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import (
    ScenarioCircuitSample,
    ScenarioResult,
    _in_child_process,
    _run_kind,
    run_planned,
)
from .netgen import NetworkPlan
from .probes import GoodputProbe, ProbeSeries
from .spec import PlannedCircuit, Scenario, ScenarioPlan

__all__ = [
    "ShardingError",
    "partition_plan",
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


def _execute_component(payload: Tuple[ScenarioPlan, Sequence[str]]) -> list:
    """Pool worker: the engine's own kind run of one component sub-plan,
    once per kind, the outcome tuples as they are."""
    plan, kinds = payload
    return [_run_kind(plan, kind) for kind in kinds]


def _series_circuit_id(series: ProbeSeries) -> int:
    """Sort key for merged goodput series: the target's circuit id."""
    return int(series.target.rsplit("-", 1)[1])


def _run_disjoint(
    plan: ScenarioPlan,
    components: List[List[PlannedCircuit]],
    kinds: List[str],
    shards: int,
) -> ScenarioResult:
    payloads = [(_component_subplan(plan, comp), kinds) for comp in components]
    workers = min(shards, len(payloads))
    if workers <= 1 or _in_child_process():
        # shards=1, or already inside a pool worker: the same kind runs
        # on the same sub-plans, one after the other.
        outputs = [_execute_component(p) for p in payloads]
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            outputs = pool.map(_execute_component, payloads)

    samples: Dict[str, List[ScenarioCircuitSample]] = {}
    probes: Dict[str, List[ProbeSeries]] = {}
    events: Dict[str, int] = {}
    for slot, kind in enumerate(kinds):
        # One (samples, per-probe series, events, ...) per component.
        runs = [out[slot] for out in outputs]
        samples[kind] = sorted(
            (sample for run in runs for sample in run[0]),
            key=lambda sample: sample.index,
        )
        probes[kind] = []
        for per_probe in zip(*(run[1] for run in runs)):
            # One probe's series from every component, by circuit id.
            merged = [series for bucket in per_probe for series in bucket]
            probes[kind].extend(sorted(merged, key=_series_circuit_id))
        events[kind] = sum(run[2] for run in runs)
    return ScenarioResult(
        scenario=plan.scenario,
        spec_hash=plan.spec_hash,
        bottleneck_relay=plan.bottleneck_relay,
        samples=samples,
        probes=probes,
        events_executed=events,
    )
