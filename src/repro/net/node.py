"""Network nodes.

A :class:`Node` is a named entity with interfaces and a static routing
table.  Packet handling is delegated to a *packet handler* — any object
with a ``handle_packet(packet, node)`` method (or a plain callable) —
so the Tor layer can plug relays, clients and servers into the same
substrate without subclassing the network code.

Forwarding model
----------------
Nodes route by destination name.  ``node.send(packet)`` looks up
``packet.dst`` in the routing table and transmits on the corresponding
interface; a packet delivered to a node it is not addressed to goes
out the same way, and delivery at the destination invokes the handler.
Transit nodes whose handler never sees a packet (the star topology's
hub) use :class:`ForwardingHandler`, which counts anything addressed
to the node itself.  A destination the table lacks goes out of the
node's ``default_route`` if it has one (a star leaf's uplink) and is an
error otherwise.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from .link import Interface
from .packet import Packet

__all__ = ["Node", "ForwardingHandler", "PacketHandler"]

#: Anything that can process a delivered packet.
PacketHandler = Union[Callable[[Packet, "Node"], None], "object"]


class Node:
    """A device in the simulated network.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.simulator.Simulator`.
    name:
        Unique name; also the routing identifier.
    handler:
        Optional packet handler; can be set later via
        :meth:`set_handler`.  Without a handler, delivered packets
        raise, which surfaces wiring bugs early.
    """

    def __init__(self, sim, name: str, handler: Optional[PacketHandler] = None) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: List[Interface] = []
        self.routes: Dict[str, Interface] = {}
        #: Egress for any destination missing from ``routes``; set only
        #: by ``build_star``, on leaves.  ``None``: a miss is an error.
        self.default_route: Optional[Interface] = None
        self.set_handler(handler)
        self.packets_received = 0
        #: Liveness flag driven by the fault plane: a node marked down
        #: (a killed relay) silently drops everything delivered to it
        #: until restarted.  Counted, not raised — a dead relay cannot
        #: answer, and the transport's timers are how neighbors notice.
        self.up = True
        self.packets_dropped_down = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def add_interface(self, interface: Interface) -> None:
        """Register *interface* as one of this node's egress ports."""
        self.interfaces.append(interface)

    def set_handler(self, handler: Optional[PacketHandler]) -> None:
        """Install the packet handler (relay / client / server logic)."""
        self._handler = handler
        # Resolved once here, not per delivered packet: an object with a
        # handle_packet method, or a plain callable.
        self._handle = getattr(handler, "handle_packet", handler)

    def interface_to(self, dst_name: str) -> Interface:
        """The interface used to reach *dst_name* (routing lookup)."""
        try:
            return self.routes[dst_name]
        except KeyError:
            if self.default_route is not None:
                return self.default_route
            raise KeyError(
                "node %s has no route to %s (routes: %s)"
                % (self.name, dst_name, sorted(self.routes))
            ) from None

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Originate *packet* from this node toward ``packet.dst``."""
        packet.src = packet.src or self.name
        self.interface_to(packet.dst).send(packet)

    def deliver(self, packet: Packet, from_interface: Interface) -> None:
        """The link layer's delivery event: *packet* arrives at this node
        (which, if it is up, counts it)."""
        if not self.up:
            self.packets_dropped_down += 1
            return
        self.packets_received += 1
        dst = packet.dst
        if dst and dst != self.name:
            # Transit: interface_to() spelled out, because half of all link
            # traversals (everything crossing a star's hub) pass here.
            interface = self.routes.get(dst)
            if interface is None:
                interface = self.interface_to(dst)  # raises, naming the routes
            interface.send(packet)
            return
        handle = self._handle
        if handle is None:
            raise RuntimeError(
                "node %s received %r but has no handler installed" % (self.name, packet)
            )
        handle(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Node %s ifaces=%d routes=%d>" % (
            self.name,
            len(self.interfaces),
            len(self.routes),
        )


class ForwardingHandler:
    """Handler for pure transit nodes (e.g. the star topology's hub).

    Packets addressed to the node itself are counted and dropped —
    transit nodes are not expected to be packet destinations, and a
    counter is friendlier to debug than an exception raised from deep
    inside the event loop.
    """

    def __init__(self) -> None:
        self.swallowed = 0

    def handle_packet(self, packet: Packet, node: Node) -> None:
        self.swallowed += 1
