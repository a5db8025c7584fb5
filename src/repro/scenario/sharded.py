"""Sharded execution of planned scenarios.

:func:`run_sharded` partitions a planned scenario's circuits into
shards and executes them in parallel, producing output **byte-identical
to the classic single-simulator engine at any shard count**.  Two
regimes, picked automatically from the plan's connectivity:

* **Disjoint components** — circuits that share no leaf (endpoint or
  relay) can never exchange a single cell, so their connected
  components are embarrassingly parallel: each component becomes a
  restricted sub-plan replayed on its own fresh :class:`Simulator`, in
  worker processes when ``shards > 1``.  Because the classic engine
  also gives every run a fresh simulator and component plans preserve
  plan order, per-component replay is event-for-event identical to the
  component's slice of a monolithic run, and merging samples by plan
  index (and probe series by circuit id) reproduces the classic result
  exactly — serial or pooled, cold or warm plan cache.

* **Epoch-barrier coupling** — a single component whose topology
  designates a bottleneck relay is split into circuit groups that only
  couple *through* that relay.  Every shard instantiates the full
  network and all circuits, but each circuit is live only in its home
  shard (elsewhere it is an inert ``workload="none"`` replica that
  contributes zero events); each leaf has exactly one *authority*
  shard, and a capture hook on the leaf's egress claims packets headed
  to a foreign-owned destination at serialization start, handing them
  to the destination shard's :class:`~repro.sim.shard.BoundaryQueue`.
  Shards advance under conservative epoch barriers
  (:class:`~repro.sim.shard.EpochCoordinator`) whose length is bounded
  by the minimum access-link propagation delay (the Chandy–Misra
  lookahead) — a captured packet's hub arrival always lands strictly
  beyond the current epoch, so barrier-only exchange is sufficient.
  Epoch boundaries are aligned to the probe sampling grid and the
  bottleneck's shard runs last at every barrier, so grid samplers
  observe every shard exactly at the grid time.

The per-shard packet streams are exact copies of the corresponding
slices of the classic run (captures replace local deliveries 1:1), and
the invariance of every sample and probe series is pinned
byte-for-byte by the tests.  In disjoint mode ``events_executed`` —
summed across shards — matches the classic engine too.  In coupled
mode it may differ by a few: an injected delivery draws its sequence
number at the barrier, so when it lands on the exact instant a wire
frees up, the tie can settle inline where the classic engine needed a
wake event (or the reverse) — at the same simulated time either way.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..serialize import decode, encode
from ..sim.shard import EpochCoordinator, Shard
from ..sim.simulator import Simulator
from ..tor.circuit import CircuitFlow, CircuitSpec
from .cache import PlanCache
from .engine import (
    KindRun,
    ScenarioCircuitSample,
    ScenarioResult,
    _make_sample,
    build_circuit_run,
    run_planned,
)
from .netgen import NetworkPlan, instantiate_network
from .probes import GoodputProbe, ProbeSeries, QueueDepthProbe, UtilizationProbe
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


def partition_plan(
    plan: ScenarioPlan, exclude: Sequence[str] = ()
) -> List[List[PlannedCircuit]]:
    """Connected components of the plan's circuits over shared leaves.

    Two circuits land in the same component when they share any leaf
    (source, sink or relay) — directly or transitively.  Leaves in
    *exclude* do not connect circuits (the coupled mode excludes the
    designated bottleneck to find the groups that only meet there).
    Components are ordered by first appearance in plan order, and each
    component's circuits stay in plan order — both matter for
    deterministic merging.
    """
    parent: Dict[str, str] = {}

    def find(leaf: str) -> str:
        root = leaf
        while parent[root] != root:
            root = parent[root]
        while parent[leaf] != root:  # path compression
            parent[leaf], leaf = root, parent[leaf]
        return root

    excluded = frozenset(exclude)
    for planned in plan.circuits:
        leaves = _circuit_leaves(planned, excluded)
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


_NO_EXCLUDED: frozenset = frozenset()


def _circuit_leaves(
    planned: PlannedCircuit, excluded: frozenset = _NO_EXCLUDED
) -> List[str]:
    """The circuit's leaves minus *excluded* (endpoints always kept)."""
    return [
        planned.source,
        planned.sink,
        *(relay for relay in planned.relays if relay not in excluded),
    ]


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

    *shards* caps the worker-process pool in disjoint-component mode
    and enables epoch-barrier coupling (``shards > 1``) in bottleneck
    mode; it never changes the result, only how it is computed.
    """
    scenario = plan.scenario
    run_kinds = list(kinds) if kinds is not None else list(scenario.kinds)
    shards = max(1, int(shards))

    if scenario.faults:
        # The fault plane is whole-network state (relay liveness, link
        # loss models, failure cascades across shard boundaries); the
        # classic engine runs it.  Correctness over parallelism.
        return run_planned(plan, kinds=run_kinds)

    components = partition_plan(plan)
    if len(components) > 1:
        _check_disjoint_probes(scenario)
        return _run_disjoint(plan, components, run_kinds, shards)

    if shards <= 1 or plan.bottleneck_relay is None:
        # One coupled component and no parallelism requested (or no
        # designated bottleneck to split on): the classic engine *is*
        # the sharded result.
        return run_planned(plan, kinds=run_kinds)

    return _run_coupled(plan, run_kinds)


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
    if workers <= 1 or multiprocessing.current_process().daemon:
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


# ---------------------------------------------------------------------------
# Epoch-barrier coupled mode
# ---------------------------------------------------------------------------


class _ProbeContext:
    """A per-shard stand-in for :class:`KindRun` at probe install time."""

    def __init__(
        self,
        network: Any,
        bottleneck_relay: Optional[str],
        runs: Sequence[WorkloadRun],
        active: Callable[[], bool],
    ) -> None:
        self.network = network
        self.bottleneck_relay = bottleneck_relay
        self.runs = runs
        self.active = active


def _coupled_eligibility(
    scenario: Scenario,
) -> Optional[float]:
    """Check probes/transport for coupled mode; return the grid interval.

    Bottleneck-scoped grid probes must share one sampling interval (it
    becomes the epoch grid so their ticks land exactly on barriers);
    goodput probes are home-shard-local and unconstrained.  Reliable
    transport plus departures is rejected: tearing a circuit down in
    its home shard cannot cancel retransmission timers its replica
    state armed in the bottleneck shard.
    """
    intervals = set()
    for probe in scenario.probes:
        if isinstance(probe, (UtilizationProbe, QueueDepthProbe)):
            if probe.scope != "bottleneck":
                raise ShardingError(
                    "probe %r with scope=%r is not supported in coupled "
                    "sharded mode: only the bottleneck relay is globally "
                    "observable" % (probe.part_name, probe.scope)
                )
            intervals.add(probe.interval)
        elif not isinstance(probe, GoodputProbe):
            raise ShardingError(
                "probe %r is not supported in coupled sharded mode"
                % probe.part_name
            )
    if len(intervals) > 1:
        raise ShardingError(
            "coupled sharded mode needs one shared sampling interval for "
            "bottleneck-scoped probes, got %s"
            % sorted(intervals)
        )
    if scenario.transport.reliable and scenario.churn.departures:
        raise ShardingError(
            "coupled sharded mode cannot combine reliable transport with "
            "departures: home-shard teardown cannot cancel replica "
            "retransmission timers in the bottleneck shard"
        )
    return intervals.pop() if intervals else None


def _lookahead(plan: ScenarioPlan) -> float:
    """Cross-shard lookahead: the minimum access-link propagation delay.

    Every cross-shard packet is captured at serialization start on a
    leaf's egress and arrives at the destination shard's hub one
    transmission time plus that leaf's link delay later, so the minimum
    leaf delay lower-bounds the capture-to-arrival latency.
    """
    lookahead = min(spec.delay for spec in plan.network.leaves.values())
    if lookahead <= 0:
        raise ShardingError(
            "coupled sharded mode needs positive access-link delays for "
            "lookahead; the plan has a zero-delay leaf"
        )
    return lookahead


def _inject_deliver(hub: Any, packet: Any) -> None:
    """Deliver a captured packet at the destination shard's hub.

    Mirrors :meth:`repro.net.link.Interface._deliver` (the event the
    capture suppressed in the source shard): one hop, then the hub's
    normal deliver/forward path — so hub counters and the onward
    egress queueing behave exactly as in the classic engine.
    """
    packet.hops += 1
    hub.deliver(packet, None)


def _make_capture(
    shard_index: int,
    owner: Dict[str, int],
    shards: Sequence[Shard],
) -> Callable[[Any, float], bool]:
    def capture(packet: Any, arrival_time: float) -> bool:
        target = owner.get(packet.dst, shard_index)
        if target == shard_index:
            return False
        shards[target].inbound.push(arrival_time, packet)
        return True

    return capture


def _make_foreign_guard(leaf: str, shard_index: int) -> Callable[..., bool]:
    def guard(packet: Any, arrival_time: float) -> bool:
        raise ShardingError(
            "replication bug: foreign leaf %s transmitted %r in shard %d"
            % (leaf, packet, shard_index)
        )

    return guard


def _run_coupled(plan: ScenarioPlan, kinds: List[str]) -> ScenarioResult:
    scenario = plan.scenario
    bottleneck = plan.bottleneck_relay
    assert bottleneck is not None  # run_sharded routed here

    grid_interval = _coupled_eligibility(scenario)
    lookahead = _lookahead(plan)

    groups = partition_plan(plan, exclude=(bottleneck,))
    bshard = len(groups)  # the bottleneck's own shard, run last
    nshards = bshard + 1

    # Leaf -> authority shard.  Group leaves belong to their group's
    # shard; the bottleneck and any unused leaf belong to the
    # bottleneck shard (unused leaves carry no traffic either way).
    owner: Dict[str, int] = {}
    for gi, group in enumerate(groups):
        for planned in group:
            for leaf in _circuit_leaves(planned, frozenset((bottleneck,))):
                owner[leaf] = gi
    for name in plan.network.leaves:
        owner.setdefault(name, bshard)

    samples: Dict[str, List[ScenarioCircuitSample]] = {}
    probes: Dict[str, List[ProbeSeries]] = {}
    events: Dict[str, int] = {}
    for kind in kinds:
        samples[kind], probes[kind], events[kind] = _run_kind_coupled(
            plan, kind, owner, nshards, lookahead, grid_interval
        )
    return ScenarioResult(
        scenario=scenario,
        spec_hash=plan.spec_hash,
        bottleneck_relay=bottleneck,
        samples=samples,
        probes=probes,
        events_executed=events,
    )


def _run_kind_coupled(
    plan: ScenarioPlan,
    kind: str,
    owner: Dict[str, int],
    nshards: int,
    lookahead: float,
    grid_interval: Optional[float],
):
    scenario = plan.scenario
    bshard = nshards - 1

    sims = [Simulator() for __ in range(nshards)]
    networks = [instantiate_network(plan.network, sim) for sim in sims]
    hubs = [
        net.topology.node(plan.network.hub_name) for net in networks
    ]

    shards: List[Shard] = []
    for si in range(nshards):

        def inject(
            time: float, packet: Any, sim=sims[si], hub=hubs[si]
        ) -> None:
            sim.schedule_at(time, _inject_deliver, hub, packet)

        shards.append(Shard(sims[si], inject, name="shard-%d" % si))

    # Authority hooks: an owned leaf's egress captures foreign-bound
    # packets; a foreign leaf transmitting at all is a replication bug.
    for si, network in enumerate(networks):
        for leaf in plan.network.leaves:
            interface = network.topology.node(leaf).interfaces[0]
            if owner[leaf] == si:
                interface.on_serialize = _make_capture(si, owner, shards)
            else:
                interface.on_serialize = _make_foreign_guard(leaf, si)

    # Full circuit replication: the home shard attaches the real
    # workload; every other shard builds an inert replica — full
    # transport state on every path host, zero scheduled events — so
    # authority-shard relays (the bottleneck, above all) hold exactly
    # the per-circuit state the classic engine would give them.
    home = [owner[planned.source] for planned in plan.circuits]
    runs_by_index: Dict[int, WorkloadRun] = {}
    shard_runs: List[List[WorkloadRun]] = [[] for __ in range(nshards)]
    for si in range(nshards):
        sim, network = sims[si], networks[si]
        for ci, planned in enumerate(plan.circuits):
            if home[ci] == si:
                run = build_circuit_run(scenario, planned, kind, sim, network)
                runs_by_index[ci] = run
                shard_runs[si].append(run)
            else:
                workload = scenario.workloads[planned.workload]
                CircuitFlow(
                    sim,
                    network.topology,
                    CircuitSpec(
                        circuit_id=planned.index + 1,
                        source=planned.source,
                        relays=list(planned.relays),
                        sink=planned.sink,
                    ),
                    scenario.transport,
                    controller_kind=kind,
                    payload_bytes=workload.total_bytes(),
                    start_time=planned.start_time,
                    workload="none",
                )
    runs = [runs_by_index[ci] for ci in range(len(plan.circuits))]

    if scenario.churn.departures:
        for run in runs:
            run.enable_departure()

    contexts = [
        KindRun(sims[si], networks[si], plan.bottleneck_relay, shard_runs[si])
        for si in range(nshards)
    ]

    def global_active() -> bool:
        return any(context.active() for context in contexts)

    # Probe installs: grid probes live in the bottleneck shard (their
    # samplers tick exactly at epoch barriers, after every other shard
    # reached the grid time); goodput samplers live with their circuit.
    collectors: List[Any] = []
    for probe in scenario.probes:
        if isinstance(probe, (UtilizationProbe, QueueDepthProbe)):
            context = _ProbeContext(
                networks[bshard], plan.bottleneck_relay, (), global_active
            )
            collectors.extend(probe.install(sims[bshard], context))
        else:  # GoodputProbe (eligibility already enforced)
            entries = []
            for si in range(nshards):
                context = _ProbeContext(
                    networks[si],
                    plan.bottleneck_relay,
                    shard_runs[si],
                    contexts[si].active,
                )
                for collector in probe.install(sims[si], context):
                    entries.append(collector)
            entries.sort(key=lambda c: int(c.target.rsplit("-", 1)[1]))
            collectors.extend(entries)

    coordinator = EpochCoordinator(shards, lookahead, grid_interval)
    coordinator.run_until(scenario.max_sim_time)

    _check_finished(plan, kind, runs)
    kind_samples = [
        _make_sample(scenario, planned, run)
        for planned, run in zip(plan.circuits, runs)
    ]
    return (
        kind_samples,
        [c.series() for c in collectors],
        coordinator.events_executed,
    )
