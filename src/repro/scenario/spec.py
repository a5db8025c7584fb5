"""The declarative scenario spec and its planner.

A :class:`Scenario` is a frozen, serializable description of one
network experiment, composed of pluggable parts: a topology source,
a workload mix, an arrival/churn process and instrumentation probes.
It says *what* to simulate; :func:`plan_scenario` turns it into a
:class:`ScenarioPlan` — the fully drawn, deterministic table of planned
circuits plus the network plan — and
:func:`repro.scenario.engine.run_planned` replays that plan once per
controller kind.

The plan is the unit of sharing: the planning pass and every kind's run
use the same plan object (no repeated ``plan_network``), and plans
are memoized in a :class:`~repro.scenario.cache.PlanCache` keyed by the
spec hash so batch sweeps over the same spec (or same network) skip
planning entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.factory import check_controller_kinds
from ..serialize import Serializable
from ..sim.rand import RandomStreams
from ..transport.config import TransportConfig
from ..units import seconds
from .cache import PlanCache, spec_hash
from .churn import NoChurn, stream_name
from .faults import FaultEvent
from .netgen import NetworkPlan
from .parts import ChurnProcess, FaultProcess, Probe, TopologySource, Workload
from .topology import GeneratedTopology
from .workloads import BulkWorkload

__all__ = [
    "PlannedCircuit",
    "Scenario",
    "ScenarioPlan",
    "network_key",
    "plan_scenario",
]


def _default_workloads() -> Tuple[Workload, ...]:
    return (BulkWorkload(),)


@dataclass(frozen=True)
class Scenario(Serializable):
    """One declarative network experiment, assembled from parts.

    Every field round-trips through JSON (parts carry a ``part``
    discriminator), so scenarios travel through ``repro batch`` job
    files, the CLI and the cache key machinery unchanged.
    """

    #: Where the network comes from (and how paths are selected).
    topology: TopologySource = field(default_factory=GeneratedTopology)
    #: The workload mix; each circuit draws one class, weight-proportional.
    workloads: Tuple[Workload, ...] = field(default_factory=_default_workloads)
    #: When circuits arrive, depart and re-arrive.
    churn: ChurnProcess = field(default_factory=NoChurn)
    #: Instrumentation sampled while the scenario runs.
    probes: Tuple[Probe, ...] = ()
    #: What goes wrong while the scenario runs (empty = pristine
    #: network; the engine then takes the classic fault-free path).
    faults: Tuple[FaultProcess, ...] = ()
    #: Size of the initial arrival wave (churn may add re-arrivals).
    circuit_count: int = 20
    #: Relays per circuit path.
    hops: int = 3
    #: The controller kinds compared (the paper's legend).
    kinds: Tuple[str, ...] = ("with", "without")
    seed: int = 2018
    #: Hard cap on simulated time; not finishing by then is an error.
    max_sim_time: float = seconds(120.0)
    transport: TransportConfig = field(default_factory=TransportConfig)
    #: RNG substream prefix.  Legacy experiment adapters set this so
    #: their draws stay byte-identical to the pre-scenario harnesses
    #: ("" for the CDF experiment, "netscale" for netscale).
    rng_namespace: str = ""

    def __post_init__(self) -> None:
        if self.circuit_count < 1:
            raise ValueError("need at least one circuit")
        if self.hops < 1:
            raise ValueError("need at least one relay hop")
        if not self.workloads:
            raise ValueError("a scenario needs at least one workload class")
        if any(w.weight < 0 for w in self.workloads):
            raise ValueError("workload weights must be non-negative")
        if sum(w.weight for w in self.workloads) <= 0:
            raise ValueError("workload weights must not all be zero")
        if not self.kinds:
            raise ValueError("a scenario needs at least one controller kind")
        if len(set(self.kinds)) != len(self.kinds):
            raise ValueError("controller kinds must be distinct")
        check_controller_kinds(self.kinds)
        if not 0 < self.max_sim_time < float("inf"):  # also NaN
            raise ValueError(
                "max_sim_time must be positive and finite, got %r"
                % self.max_sim_time
            )
        self.topology.validate(self)
        for probe in self.probes:
            probe.validate(self)
        for fault in self.faults:
            fault.validate(self)


@dataclass
class PlannedCircuit(Serializable):
    """One fully planned circuit: everything a run needs, pure data."""

    #: Planned order; circuit ids are ``index + 1``.
    index: int
    #: 0 = initial arrival wave, >= 1 = churn re-arrival.
    generation: int
    #: Index into the scenario's ``workloads`` tuple.
    workload: int
    source: str
    sink: str
    relays: List[str]
    start_time: float

    @property
    def hop_count(self) -> int:
        """Transport hops along the circuit (links between nodes)."""
        return len(self.relays) + 1


@dataclass
class ScenarioPlan(Serializable):
    """A planned scenario: the shared product of one planning pass.

    Built once per distinct spec (and cached by spec hash); every
    controller kind's run replays this same plan on a fresh simulator,
    so differences in the output are attributable to the controller.
    Plans round-trip through :mod:`repro.serialize` (that is how the
    disk tier of the plan cache stores them), and a round-tripped plan
    runs byte-identically to the original — the tests pin it.
    """

    scenario: Scenario
    spec_hash: str
    network: NetworkPlan
    bottleneck_relay: Optional[str]
    circuits: List[PlannedCircuit]
    #: Scheduled relay kill/restart events, time-ordered.  Drawn once
    #: here so cached-plan reruns replay the identical fault schedule.
    fault_events: List[FaultEvent] = field(default_factory=list)

    def estimated_cost(self) -> Dict[str, int]:
        """Predicted engine cost, before running anything.

        ``cells`` counts the application data cells injected across all
        planned circuits (each workload part models its own framing —
        message-based workloads start a fresh cell per message);
        ``cell_hops`` multiplies each circuit's cells by its transport
        hop count — the quantity engine time is proportional to.  Both
        are per controller kind; ``kinds`` reports the multiplier.
        """
        workloads = self.scenario.workloads
        cells = 0
        cell_hops = 0
        for circuit in self.circuits:
            circuit_cells = workloads[circuit.workload].estimated_cells()
            cells += circuit_cells
            cell_hops += circuit_cells * circuit.hop_count
        return {
            "circuits": len(self.circuits),
            "cells": cells,
            "cell_hops": cell_hops,
            "kinds": len(self.scenario.kinds),
        }


def plan_scenario(
    scenario: Scenario, cache: Optional[PlanCache] = None
) -> ScenarioPlan:
    """Plan *scenario*: one deterministic, cacheable circuit table.

    With a *cache*, the full plan is memoized by the hash of the entire
    spec, and the network plan by the topology source's fingerprint —
    so sweeps over the same network skip the repeated consensus draws.
    Network draws live on their own substreams, which makes a plan
    assembled from a cached network byte-identical to one planned cold.
    When the cache carries a disk tier, both levels additionally
    persist across processes; concurrent cold planners of the same key
    each plan it and publish the same bytes.
    """
    key = spec_hash(scenario)
    if cache is None:
        return _plan_cold(scenario, key, None)
    return cache.get_or_compute(
        "plan", key, lambda: _plan_cold(scenario, key, cache)
    )


def network_key(scenario: Scenario) -> str:
    """The content key of the network *scenario* plans: scenarios with one
    key plan one network (the plan cache's key for it)."""
    return spec_hash(scenario.topology.network_fingerprint(scenario))


def _plan_cold(
    scenario: Scenario, key: str, cache: Optional[PlanCache]
) -> ScenarioPlan:
    """The actual planning pass (every random draw happens here)."""
    topology = scenario.topology
    streams = RandomStreams(scenario.seed)

    if cache is not None:
        network = cache.get_or_compute(
            "network", network_key(scenario),
            lambda: topology.plan_network(scenario, streams),
        )
    else:
        network = topology.plan_network(scenario, streams)

    directory = network.build_directory()
    bottleneck = topology.select_bottleneck(scenario, network)
    arrivals = scenario.churn.plan_arrivals(scenario, streams)
    paths = topology.plan_paths(
        scenario, streams, network, directory, bottleneck, len(arrivals)
    )

    # Workload-class assignment: one weighted draw per circuit.  With a
    # single class there is nothing to draw — and the substream is left
    # untouched, which keeps single-workload legacy adapters (the CDF
    # experiment) draw-for-draw identical to their pre-scenario code.
    workloads = scenario.workloads
    if len(workloads) == 1:
        assignment = [0] * len(arrivals)
    else:
        total_weight = sum(w.weight for w in workloads)
        boundaries = []
        cumulative = 0.0
        for workload in workloads:
            cumulative += workload.weight / total_weight
            boundaries.append(cumulative)
        rng = streams.stream(stream_name(scenario.rng_namespace, "workloads"))
        assignment = []
        for __ in range(len(arrivals)):
            draw = rng.random()
            index = len(boundaries) - 1
            for i, boundary in enumerate(boundaries):
                if draw < boundary:
                    index = i
                    break
            assignment.append(index)

    circuits = []
    for index, ((generation, start_time), path, workload_index) in enumerate(
        zip(arrivals, paths, assignment)
    ):
        source, sink = topology.endpoints(network, index)
        circuits.append(
            PlannedCircuit(
                index=index,
                generation=generation,
                workload=workload_index,
                source=source,
                sink=sink,
                relays=list(path),
                start_time=start_time,
            )
        )

    # Fault events draw last, on their own substreams, so arming the
    # fault plane never perturbs the network/arrival/path draws above.
    fault_events: List[FaultEvent] = []
    for process in scenario.faults:
        fault_events.extend(
            process.plan_events(scenario, streams, network, bottleneck)
        )
    fault_events.sort(key=lambda event: (event.at, event.relay, event.action))

    return ScenarioPlan(
        scenario=scenario,
        spec_hash=key,
        network=network,
        bottleneck_relay=bottleneck,
        circuits=circuits,
        fault_events=fault_events,
    )
