"""Topology construction and static routing.

A :class:`Topology` owns a set of nodes and the duplex links between
them, and computes static next-hop routing tables (shortest path by
propagation delay, via :mod:`networkx`; a star's tables are filled in
directly).  The two shapes used by the paper's evaluation have
dedicated builders:

* :func:`build_chain` — client, a sequence of relays, and a server in a
  line; used for the Figure-1 cwnd traces where the bottleneck link's
  position along the circuit is the independent variable.
* :func:`build_star` — every host hangs off a central hub by its own
  access link; used for the Figure-1 CDF experiment ("a randomly
  generated network of Tor relays, connected in a star topology").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..units import Rate
from .link import Interface, Link
from .node import ForwardingHandler, Node
from .queues import DropTailQueue, FifoQueue

__all__ = [
    "LinkSpec",
    "Topology",
    "build_chain",
    "build_star",
]


@dataclass(frozen=True)
class LinkSpec:
    """Parameters of one duplex link: rate, one-way delay, queue bound."""

    rate: Rate
    delay: float
    queue_capacity_packets: Optional[int] = None  # None = unbounded FIFO

    def make_queue(self) -> FifoQueue:
        if self.queue_capacity_packets is None:
            return FifoQueue()
        return DropTailQueue(self.queue_capacity_packets)


class Topology:
    """A collection of nodes wired by duplex links, with static routing."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.graph = nx.Graph()
        self._links: List[Tuple[str, str, LinkSpec]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, name: str, handler=None) -> Node:
        """Create (or fetch) the node called *name*."""
        if name in self.nodes:
            raise ValueError("duplicate node name %r" % name)
        node = Node(self.sim, name, handler=handler)
        self.nodes[name] = node
        self.graph.add_node(name)
        return node

    def node(self, name: str) -> Node:
        """Look up an existing node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(
                "unknown node %r (have: %s)" % (name, sorted(self.nodes))
            ) from None

    def connect(self, a_name: str, b_name: str, spec: LinkSpec) -> None:
        """Wire a duplex link between two existing nodes.

        Internally creates two unidirectional links and interfaces, one
        per direction, each with its own egress queue.
        """
        node_a = self.node(a_name)
        node_b = self.node(b_name)
        if self.graph.has_edge(a_name, b_name):
            raise ValueError("nodes %s and %s are already connected" % (a_name, b_name))
        for src, dst in ((node_a, node_b), (node_b, node_a)):
            link = Link(spec.rate, spec.delay, name="%s->%s" % (src.name, dst.name))
            iface = Interface(
                self.sim, src, link, queue=spec.make_queue(),
                name="%s->%s" % (src.name, dst.name),
            )
            iface.attach_peer(dst)
            src.add_interface(iface)
        self.graph.add_edge(a_name, b_name, delay=spec.delay, spec=spec)
        self._links.append((a_name, b_name, spec))

    def build_routes(self) -> None:
        """Populate every node's next-hop table (shortest delay paths)."""
        paths = dict(nx.all_pairs_dijkstra_path(self.graph, weight="delay"))
        for src_name, per_dst in paths.items():
            node = self.nodes[src_name]
            for dst_name, path in per_dst.items():
                if dst_name == src_name or len(path) < 2:
                    continue
                next_hop = path[1]
                node.set_route(dst_name, self._interface_between(src_name, next_hop))

    def _interface_between(self, src_name: str, dst_name: str) -> Interface:
        for iface in self.nodes[src_name].interfaces:
            if iface.peer is not None and iface.peer.name == dst_name:
                return iface
        raise KeyError("no interface from %s to %s" % (src_name, dst_name))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def path(self, src_name: str, dst_name: str) -> List[str]:
        """Node names along the routed path, endpoints included."""
        return nx.shortest_path(self.graph, src_name, dst_name, weight="delay")

    def path_links(self, src_name: str, dst_name: str) -> List[LinkSpec]:
        """The :class:`LinkSpec` of each link along the routed path."""
        names = self.path(src_name, dst_name)
        return [
            self.graph.edges[a, b]["spec"] for a, b in zip(names, names[1:])
        ]

    def link_spec(self, a_name: str, b_name: str) -> LinkSpec:
        """The spec of the (single) link between two adjacent nodes."""
        return self.graph.edges[a_name, b_name]["spec"]

    @property
    def link_count(self) -> int:
        """Number of duplex links in the topology."""
        return len(self._links)


def build_chain(
    sim,
    names: Sequence[str],
    specs: Sequence[LinkSpec],
) -> Topology:
    """A line topology: ``names[0] — names[1] — ... — names[-1]``.

    ``specs[i]`` configures the link between ``names[i]`` and
    ``names[i+1]``; therefore ``len(specs) == len(names) - 1``.
    """
    if len(names) < 2:
        raise ValueError("a chain needs at least two nodes")
    if len(specs) != len(names) - 1:
        raise ValueError(
            "chain of %d nodes needs %d link specs, got %d"
            % (len(names), len(names) - 1, len(specs))
        )
    topo = Topology(sim)
    for name in names:
        topo.add_node(name)
    for (a, b), spec in zip(zip(names, names[1:]), specs):
        topo.connect(a, b, spec)
    topo.build_routes()
    return topo


def build_star(
    sim,
    hub_name: str,
    leaves: Dict[str, LinkSpec],
) -> Topology:
    """A star topology: every leaf connects to *hub_name* by its own link.

    The hub gets a :class:`~repro.net.node.ForwardingHandler`; leaves
    are left handler-less for the Tor layer to claim.
    """
    topo = Topology(sim)
    hub = topo.add_node(hub_name, handler=ForwardingHandler())
    names = [hub_name, *leaves]
    for leaf_name, spec in leaves.items():
        leaf = topo.add_node(leaf_name)
        topo.connect(hub_name, leaf_name, spec)
        # A star has exactly one path per pair, so the tables
        # build_routes() would search for are known: the hub reaches
        # each leaf over that leaf's own link, and a leaf reaches
        # everything else over its uplink.
        hub.routes[leaf_name] = hub.interfaces[-1]
        leaf.routes = dict.fromkeys(names, leaf.interfaces[-1])
        del leaf.routes[leaf_name]
    return topo
