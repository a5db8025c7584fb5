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
A destination the table lacks goes out of the node's ``default_route``
if it has one (a star leaf's uplink) and is an error otherwise.

Delivery
--------
A link's delivery event calls the receiving node's :attr:`Node.receive`
with the packet alone, chosen by :meth:`Node.set_handler`:

* a handler that declares ``handles_delivery`` (the Tor layer's
  ``TorHost``) is called straight: its ``handle_packet(packet)`` does
  the node's ``up`` check, counts and forwarding itself, in one frame;
* any other handler is reached through :meth:`Node.deliver`;
* a *transit* node, whose handler is a :class:`ForwardingHandler` (the
  star topology's hub), has ``receive = None``: the sending interface
  puts the packet straight into the egress its route names (see
  :mod:`repro.net.link`), and only a packet it has no route for (one
  addressed to the hub itself) reaches :meth:`Node.deliver`.  A transit
  node originates nothing, has no default route and is never taken
  down (the fault plane kills relays), so what it took off its links
  is what its egress interfaces sent or still hold:
  :attr:`Node.packets_received` adds that up instead of counting.
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
        self._packets_received = 0
        self.set_handler(handler)
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
        """Install the packet handler (relay / client / server logic)
        and, from it, what a delivery calls (:attr:`receive`)."""
        self._handler = handler
        # Resolved once here, not per delivered packet: an object with a
        # handle_packet method, or a plain callable.
        self._handle = getattr(handler, "handle_packet", handler)
        if isinstance(handler, ForwardingHandler):
            receive = None
        elif getattr(handler, "handles_delivery", False):
            receive = self._handle
        else:
            receive = self.deliver
        #: What a link's delivery event calls with the packet: the
        #: handler itself if it handles the whole delivery, ``None`` on a
        #: transit node, :meth:`deliver` otherwise (module docstring).
        #: Read when a transmission toward this node starts.
        self.receive: Optional[Callable[[Packet], None]] = receive

    @property
    def packets_received(self) -> int:
        """Packets this node took off a link while it was up."""
        received = self._packets_received
        if isinstance(self._handler, ForwardingHandler):
            # Transit: everything routed went straight into an egress.
            for interface in self.interfaces:
                received += interface.packets_sent + len(interface._waiting)
        return received

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

    def deliver(self, packet: Packet) -> None:
        """*packet* arrives at this node (which, if it is up, counts it):
        the delivery of a node whose handler does not handle it itself."""
        if not self.up:
            self.packets_dropped_down += 1
            return
        self._packets_received += 1
        dst = packet.dst
        if dst and dst != self.name:
            self.interface_to(dst).send(packet)
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

    Installing one makes the node a transit node (module docstring).
    Packets addressed to the node itself are counted and dropped —
    transit nodes are not expected to be packet destinations, and a
    counter is friendlier to debug than an exception raised from deep
    inside the event loop.
    """

    def __init__(self) -> None:
        self.swallowed = 0

    def handle_packet(self, packet: Packet, node: Node) -> None:
        self.swallowed += 1
