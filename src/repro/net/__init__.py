"""Network substrate: packets, links, nodes and topologies.

This package models the parts of ns-3 the CircuitStart evaluation
depends on — store-and-forward point-to-point links with configurable
rate, propagation delay and egress queueing — without the parts it does
not (L2 framing, ARP, full TCP/IP).  :mod:`repro.sim.simulator` says why
this substitution preserves the paper's behaviour.
"""

from .link import Interface, Link
from .node import ForwardingHandler, Node, PacketHandler
from .packet import Packet
from .topology import LinkSpec, Topology, build_chain, build_star
from .traffic import ConstantRateSender, LatencyTracker

__all__ = [
    "ConstantRateSender",
    "ForwardingHandler",
    "Interface",
    "LatencyTracker",
    "Link",
    "LinkSpec",
    "Node",
    "Packet",
    "PacketHandler",
    "Topology",
    "build_chain",
    "build_star",
]
