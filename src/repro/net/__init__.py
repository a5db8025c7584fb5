"""Network substrate: packets, links, nodes and topologies.

This package models the parts of ns-3 the CircuitStart evaluation
depends on — store-and-forward point-to-point links with configurable
rate, propagation delay and egress queueing — without the parts it does
not (L2 framing, ARP, full TCP/IP).  :mod:`repro.sim.simulator` says why
this substitution preserves the paper's behaviour.
"""

from typing import Any

from .._lazy import bind_all

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


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), ("link", "node", "packet", "topology", "traffic"), name)
