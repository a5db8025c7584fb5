"""Random Tor network generation (the Figure-1c substrate).

The paper measures download times "over a randomly generated network of
Tor relays, connected in a star topology".  This module generates such
networks deterministically from a seed:

* a central hub (an abstraction of the Internet core) with ample
  capacity;
* relays, each attached to the hub by its own access link whose rate is
  drawn from a heterogeneous distribution — a discrete mix modelled on
  the spread of Tor relay bandwidth classes (a stand-in for the real
  consensus distribution);
* per-circuit client and server hosts with fast access links, so
  measured bottlenecks are always relay capacity, never the endpoints.

The generator also produces the matching :class:`~repro.tor.Directory`
so path selection can be bandwidth-weighted, like Tor's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..net.topology import LinkSpec, Topology, build_star
from ..serialize import Serializable
from ..sim.rand import RandomStreams
from ..sim.simulator import Simulator
from ..tor.directory import Directory, RelayDescriptor
from ..units import Rate, mbit_per_second, milliseconds

__all__ = [
    "NetworkConfig",
    "NetworkPlan",
    "GeneratedNetwork",
    "instantiate_network",
    "plan_network",
]


@dataclass(frozen=True)
class NetworkConfig(Serializable):
    """Parameters of the random star network."""

    relay_count: int = 60
    client_count: int = 50
    server_count: int = 50
    #: Candidate relay access rates (Mbit/s) and their mix weights —
    #: a coarse model of the Tor consensus bandwidth spread: many slow
    #: relays, a few fast ones.
    relay_rate_classes_mbit: Sequence[float] = (4.0, 8.0, 16.0, 32.0, 64.0)
    relay_rate_weights: Sequence[float] = (0.30, 0.25, 0.20, 0.15, 0.10)
    #: Relay access one-way delay range (milliseconds).
    relay_delay_ms: Tuple[float, float] = (4.0, 15.0)
    #: Endpoint (client/server) access links: fast and low-delay.
    endpoint_rate_mbit: float = 100.0
    endpoint_delay_ms: Tuple[float, float] = (2.0, 6.0)

    def __post_init__(self) -> None:
        if self.relay_count < 3:
            raise ValueError("need at least 3 relays for 3-hop circuits")
        if self.client_count < 1 or self.server_count < 1:
            raise ValueError(
                "need at least one client and one server host, got %d/%d"
                % (self.client_count, self.server_count)
            )
        if len(self.relay_rate_classes_mbit) != len(self.relay_rate_weights):
            raise ValueError("rate classes and weights must align")
        for name in ("relay_delay_ms", "endpoint_delay_ms"):
            low, high = getattr(self, name)
            if not 0 <= low <= high < float("inf"):  # also NaN
                raise ValueError(
                    "%s must be a finite, non-negative, ordered range, got %r"
                    % (name, (low, high))
                )


@dataclass
class GeneratedNetwork:
    """A generated star network plus its consensus directory."""

    topology: Topology
    directory: Directory
    hub_name: str
    relay_names: List[str]
    client_names: List[str]
    server_names: List[str]
    relay_specs: Dict[str, LinkSpec] = field(default_factory=dict)

    def relay_rate(self, name: str) -> Rate:
        """Access-link rate of relay *name*."""
        return self.relay_specs[name].rate


@dataclass
class NetworkPlan(Serializable):
    """A fully drawn network, not yet bound to any simulator.

    Planning (the random draws) and instantiation (building the
    simulator-bound :class:`~repro.net.topology.Topology`) are split so
    one plan can back many runs: the "with" and "without" runs of an
    experiment, the planning pass and the run pass, and every job of a
    batch sweep over the same network share one plan instead of each
    re-drawing the consensus.  A plan is pure data — link specs and
    names — and therefore cheap to hold in the scenario plan cache, and
    it round-trips through :mod:`repro.serialize` so the cache's disk
    tier can persist it across processes.
    """

    config: NetworkConfig
    hub_name: str
    relay_names: List[str]
    client_names: List[str]
    server_names: List[str]
    #: Every leaf's access link (relays and endpoints alike).
    leaves: Dict[str, LinkSpec]
    relay_specs: Dict[str, LinkSpec] = field(default_factory=dict)

    def build_directory(self) -> Directory:
        """A fresh consensus directory for this plan's relays."""
        return Directory(
            RelayDescriptor(name, self.relay_specs[name].rate)
            for name in self.relay_names
        )

    def relay_rate(self, name: str) -> Rate:
        """Access-link rate of relay *name*."""
        return self.relay_specs[name].rate


def plan_network(config: NetworkConfig, streams: RandomStreams) -> NetworkPlan:
    """Draw the star network for *config*, seeded by *streams*.

    All randomness happens here; :func:`instantiate_network` performs
    zero draws, so the same plan can be instantiated on any number of
    simulators and always yields the identical network.
    """
    rate_rng = streams.stream("netgen.rates")
    delay_rng = streams.stream("netgen.delays")

    leaves: Dict[str, LinkSpec] = {}
    relay_specs: Dict[str, LinkSpec] = {}

    relay_names = ["relay%02d" % i for i in range(config.relay_count)]
    for name in relay_names:
        rate_mbit = rate_rng.choices(
            list(config.relay_rate_classes_mbit),
            weights=list(config.relay_rate_weights),
            k=1,
        )[0]
        delay = milliseconds(delay_rng.uniform(*config.relay_delay_ms))
        spec = LinkSpec(mbit_per_second(rate_mbit), delay)
        leaves[name] = spec
        relay_specs[name] = spec

    client_names = ["client%02d" % i for i in range(config.client_count)]
    server_names = ["server%02d" % i for i in range(config.server_count)]
    for name in client_names + server_names:
        delay = milliseconds(delay_rng.uniform(*config.endpoint_delay_ms))
        leaves[name] = LinkSpec(mbit_per_second(config.endpoint_rate_mbit), delay)

    return NetworkPlan(
        config=config,
        hub_name="hub",
        relay_names=relay_names,
        client_names=client_names,
        server_names=server_names,
        leaves=leaves,
        relay_specs=relay_specs,
    )


def instantiate_network(plan: NetworkPlan, sim: Simulator) -> GeneratedNetwork:
    """Build the simulator-bound network described by *plan* (no draws)."""
    topology = build_star(sim, plan.hub_name, plan.leaves)
    return GeneratedNetwork(
        topology=topology,
        directory=plan.build_directory(),
        hub_name=plan.hub_name,
        relay_names=list(plan.relay_names),
        client_names=list(plan.client_names),
        server_names=list(plan.server_names),
        relay_specs=dict(plan.relay_specs),
    )
