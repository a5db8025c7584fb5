"""Topology construction and static routing.

A :class:`Topology` owns a set of nodes and the duplex links between
them, and computes static next-hop routing tables: shortest path by
propagation delay, by its own Dijkstra search over the adjacency that
:meth:`Topology.connect` records (standard library only).  Among
equal-delay paths the search keeps the one it found first: a path is
replaced only by a strictly shorter one, and neighbours are tried in
the order they were connected.  The two shapes used by the paper's
evaluation have dedicated builders:

* :func:`build_chain` — client, a sequence of relays, and a server in a
  line; used for the Figure-1 cwnd traces where the bottleneck link's
  position along the circuit is the independent variable.
* :func:`build_star` — every host hangs off a central hub by its own
  access link; used for the Figure-1 CDF experiment ("a randomly
  generated network of Tor relays, connected in a star topology").
  A star is not searched: the hub holds one route per leaf and each
  leaf a single default route, its uplink.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from ..units import Rate
from .link import Interface, Link
from .node import ForwardingHandler, Node

__all__ = [
    "LinkSpec",
    "Topology",
    "build_chain",
    "build_star",
]


@dataclass(frozen=True)
class LinkSpec:
    """Parameters of one duplex link: rate and one-way delay."""

    rate: Rate
    delay: float


class Topology:
    """A collection of nodes wired by duplex links, with static routing."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        #: name -> {neighbour -> spec of the link between them}, both in
        #: the order they were added (the search's tie order).
        self._neighbours: Dict[str, Dict[str, LinkSpec]] = {}
        self._interfaces: Dict[Tuple[str, str], Interface] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, name: str, handler=None) -> Node:
        """Create the node called *name*; a duplicate name raises."""
        if name in self.nodes:
            raise ValueError("duplicate node name %r" % name)
        node = Node(self.sim, name, handler=handler)
        self.nodes[name] = node
        self._neighbours[name] = {}
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
        if (a_name, b_name) in self._interfaces:
            raise ValueError("nodes %s and %s are already connected" % (a_name, b_name))
        for src, dst in ((node_a, node_b), (node_b, node_a)):
            name = "%s->%s" % (src.name, dst.name)
            iface = Interface(self.sim, src, Link(spec.rate, spec.delay, name=name), name=name)
            iface.attach_peer(dst)
            src.add_interface(iface)
            self._interfaces[src.name, dst.name] = iface
            self._neighbours[src.name][dst.name] = spec

    def build_routes(self) -> None:
        """Populate every node's next-hop table (shortest delay paths)."""
        for src_name, node in self.nodes.items():
            first_hop: Dict[str, str] = {}
            for name, before in self._shortest_tree(src_name).items():
                if before is not None:  # None: the source itself
                    first_hop[name] = name if before == src_name else first_hop[before]
                    node.routes[name] = self._interfaces[src_name, first_hop[name]]

    def _shortest_tree(self, src_name: str) -> Dict[str, Optional[str]]:
        """Every node reachable from *src_name*, nearest first, mapped to
        its predecessor on the shortest-delay path (``None`` for the
        source).  Ties are broken as the module docstring says."""
        tree: Dict[str, Optional[str]] = {}
        best: Dict[str, float] = {src_name: 0}
        pushes = count(1)  # equal distances settle in the order found
        fringe: List[tuple] = [(0, 0, src_name, None)]
        while fringe:
            distance, _, name, before = heappop(fringe)
            if name in tree:
                continue
            tree[name] = before
            for peer, spec in self._neighbours[name].items():
                through = distance + spec.delay
                if peer not in tree and (peer not in best or through < best[peer]):
                    best[peer] = through
                    heappush(fringe, (through, next(pushes), peer, name))
        return tree

    def release(self) -> None:
        """Drop the network's pointers back into itself (the run is over).

        A node holds its interfaces and what its deliveries call (its
        own ``deliver`` or its handler's), an interface its node, its
        peer and its own bound ``send``: without these pointers
        reference counting frees a finished network.  Nodes, interfaces
        and every counter on them stay readable.
        """
        for interface in self._interfaces.values():
            interface.owner = None
            interface.peer = None
            interface._send = None
        for node in self.nodes.values():
            node.receive = None

    def _interface_between(self, src_name: str, dst_name: str) -> Interface:
        try:
            return self._interfaces[src_name, dst_name]
        except KeyError:
            raise KeyError("no interface from %s to %s" % (src_name, dst_name)) from None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def path(self, src_name: str, dst_name: str) -> List[str]:
        """Node names along the shortest-delay path, endpoints included
        (the one *src_name*'s routes are built from)."""
        tree = self._shortest_tree(src_name) if src_name in self.nodes else {}
        if dst_name not in tree:
            raise KeyError("no path from %r to %r" % (src_name, dst_name))
        names = [dst_name]
        while tree[names[-1]] is not None:
            names.append(tree[names[-1]])
        return names[::-1]


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
    for leaf_name, spec in leaves.items():
        leaf = topo.add_node(leaf_name)
        topo.connect(hub_name, leaf_name, spec)
        # A star has exactly one path per pair, so the routes
        # build_routes() would search for are known: the hub reaches
        # each leaf over that leaf's own link, and a leaf reaches
        # everything else over its uplink (one default route, not a
        # table of n entries on each of n leaves).
        hub.routes[leaf_name] = hub.interfaces[-1]
        leaf.default_route = leaf.interfaces[-1]
    return topo
