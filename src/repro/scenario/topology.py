"""Topology source parts: where the network under test comes from.

A topology source owns the whole *where* of a scenario: it plans the
network (pure data, cacheable), nominates the bottleneck relay, selects
every circuit's relay path and maps circuits onto endpoint hosts.

:class:`GeneratedTopology` wraps the seeded star generator
(:mod:`repro.scenario.netgen`, historically
``repro.experiments.netgen``) and supports both path regimes the
experiments use:

* ``force_bottleneck=False`` — Tor-style bandwidth-weighted paths via
  :class:`~repro.tor.path_selection.PathSelector` (the Figure-1c CDF
  recipe);
* ``force_bottleneck=True`` — the network-scale recipe: the slowest
  generated relay is forced into the middle position of *every* path,
  so contention at that relay is systemic, not incidental.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..tor.path_selection import PathSelector
from .churn import stream_name
from .netgen import NetworkConfig, NetworkPlan, plan_network
from .parts import TopologySource, register_part

__all__ = ["GeneratedTopology", "forced_bottleneck_paths"]


def forced_bottleneck_paths(
    rng: Any,
    directory: Any,
    bottleneck: str,
    hops: int,
    count: int,
) -> List[List[str]]:
    """*count* relay paths with *bottleneck* forced into every middle.

    The remaining positions are sampled bandwidth-weighted without
    replacement (Tor-style), excluding the bottleneck so it appears
    exactly once per path.  Deterministic given *rng*.
    """
    middle = hops // 2
    paths: List[List[str]] = []
    for __ in range(count):
        others = [
            relay.name
            for relay in directory.weighted_sample(
                rng, hops - 1, exclude=[bottleneck]
            )
        ]
        paths.append(others[:middle] + [bottleneck] + others[middle:])
    return paths


@register_part
@dataclass(frozen=True)
class GeneratedTopology(TopologySource):
    """The seeded random star network of Tor relays."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    #: Force the slowest generated relay into every path's middle
    #: position (the network-scale shared-bottleneck recipe).
    force_bottleneck: bool = False
    #: Partition relays and endpoints into this many disjoint clusters
    #: (by index, round-robin); circuit *i* draws its path and endpoints
    #: entirely from cluster ``i % clusters``.  With
    #: ``force_bottleneck=True`` the globally slowest relay is still
    #: forced into every path, so clusters meet only there.  Without
    #: it, clusters are disjoint components of one simulation.
    clusters: int = 1
    part: str = field(default="generated", init=False)

    # --- planning -------------------------------------------------------

    def validate(self, scenario: Any) -> None:
        """Reject scenario/topology combinations that cannot plan."""
        if self.clusters < 1:
            raise ValueError(
                "clusters must be at least 1, got %d" % self.clusters
            )
        if self.network.relay_count // self.clusters < scenario.hops:
            raise ValueError(
                "%d relays split into %d clusters cannot form %d-hop paths"
                % (self.network.relay_count, self.clusters, scenario.hops)
            )
        if min(self.network.client_count, self.network.server_count) < self.clusters:
            raise ValueError(
                "%d clusters need at least that many clients and servers "
                "(have %d clients, %d servers)"
                % (
                    self.clusters,
                    self.network.client_count,
                    self.network.server_count,
                )
            )

    def designates_bottleneck(self) -> bool:
        """Whether :meth:`select_bottleneck` will name a relay.

        Answerable without planning, so spec validation can reject
        bottleneck-scoped probes up front instead of mid-run.
        """
        return self.force_bottleneck

    def network_fingerprint(self, scenario: Any) -> Dict[str, Any]:
        """The network-plan cache key payload.

        Only the network config and the seed shape the generated
        network — ``force_bottleneck`` and ``clusters`` affect path
        planning, not the network itself — so scenarios differing in
        any other field still share one cached :class:`NetworkPlan`.
        """
        from ..serialize import encode

        return {"network": encode(self.network), "seed": scenario.seed}

    def plan_network(self, scenario: Any, streams: Any) -> NetworkPlan:
        """Draw the network: pure data, cached by :meth:`network_fingerprint`."""
        return plan_network(self.network, streams)

    def select_bottleneck(self, scenario: Any, plan: NetworkPlan) -> Optional[str]:
        """The slowest generated relay (name breaks rate ties)."""
        if not self.force_bottleneck:
            return None
        return min(
            plan.relay_names,
            key=lambda name: (plan.relay_rate(name).bytes_per_second, name),
        )

    def plan_paths(
        self,
        scenario: Any,
        streams: Any,
        plan: NetworkPlan,
        directory: Any,
        bottleneck: Optional[str],
        count: int,
    ) -> List[List[str]]:
        """Relay-name paths for *count* circuits, in circuit order."""
        rng = streams.stream(stream_name(scenario.rng_namespace, "paths"))
        if self.clusters > 1:
            return self._clustered_paths(
                scenario, rng, plan, directory, bottleneck, count
            )
        if self.force_bottleneck:
            assert bottleneck is not None
            return forced_bottleneck_paths(
                rng, directory, bottleneck, scenario.hops, count
            )
        selector = PathSelector(directory, rng)
        return [
            [relay.name for relay in selector.select_path(scenario.hops)]
            for __ in range(count)
        ]

    def _clustered_paths(
        self,
        scenario: Any,
        rng: Any,
        plan: NetworkPlan,
        directory: Any,
        bottleneck: Optional[str],
        count: int,
    ) -> List[List[str]]:
        """Per-cluster paths: circuit *i* draws from cluster ``i % k``.

        Every non-bottleneck position is sampled bandwidth-weighted
        without replacement from the circuit's own cluster pool, so no
        path touches another cluster's relays.  With a forced
        bottleneck, the (global) bottleneck relay takes the middle
        position of every path regardless of its home cluster.
        """
        k = self.clusters
        middle = scenario.hops // 2
        # exclusion list per cluster: every relay outside the cluster,
        # plus the forced bottleneck (it must not be drawn twice).
        excludes: List[List[str]] = []
        for cluster in range(k):
            pool = set(plan.relay_names[cluster::k])
            pool.discard(bottleneck)
            excludes.append(
                [name for name in plan.relay_names if name not in pool]
            )
        paths: List[List[str]] = []
        for index in range(count):
            exclude = excludes[index % k]
            if self.force_bottleneck:
                assert bottleneck is not None
                others = [
                    relay.name
                    for relay in directory.weighted_sample(
                        rng, scenario.hops - 1, exclude=exclude
                    )
                ]
                paths.append(others[:middle] + [bottleneck] + others[middle:])
            else:
                paths.append(
                    [
                        relay.name
                        for relay in directory.weighted_sample(
                            rng, scenario.hops, exclude=exclude
                        )
                    ]
                )
        return paths

    def endpoints(self, plan: NetworkPlan, index: int) -> Tuple[str, str]:
        """(source, sink) hosts of circuit *index*.

        Endpoints are reused round-robin — fewer endpoints than
        circuits is intentional at network scale (clients run several
        circuits, like a Tor client does).  With clusters, circuit *i*
        only uses cluster ``i % k``'s endpoints, keeping clusters
        leaf-disjoint.
        """
        k = self.clusters
        if k > 1:
            servers = plan.server_names[index % k :: k]
            clients = plan.client_names[index % k :: k]
            turn = index // k
            return (
                servers[turn % len(servers)],
                clients[turn % len(clients)],
            )
        return (
            plan.server_names[index % len(plan.server_names)],
            plan.client_names[index % len(plan.client_names)],
        )
