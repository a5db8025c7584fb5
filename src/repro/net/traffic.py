"""Background cross-traffic.

The paper's introduction: "it is desired that Tor traffic behave much
like background traffic, i.e., avoiding aggressive traffic patterns."
To evaluate that property we need *actual* background traffic sharing a
link with a circuit and a way to measure how much the circuit's ramp-up
disturbs it.

:class:`ConstantRateSender` emits fixed-size packets on a constant
schedule (a stand-in for the long-lived background flows of an access
link); :class:`LatencyTracker` is the matching receiver, recording each
packet's one-way delay so experiments can compare delay distributions
with and without a competing circuit start-up.
"""

from __future__ import annotations

from typing import List

from ..units import Rate
from .node import Node
from .packet import Packet

__all__ = ["ConstantRateSender", "LatencyTracker"]


class ConstantRateSender:
    """Sends fixed-size packets from *node* to *dst* at a constant rate.

    The schedule is deterministic: one packet every
    ``packet_size / rate`` seconds, starting at *start_time*, for the
    whole simulation.
    """

    def __init__(
        self,
        sim,
        node: Node,
        dst: str,
        rate: Rate,
        packet_size: int = 512,
        start_time: float = 0.0,
    ) -> None:
        if not packet_size > 0 or packet_size % 1:  # what Packet refuses
            raise ValueError(
                "packet size must be a positive whole number of bytes, got %r"
                % packet_size
            )
        self.sim = sim
        self.node = node
        self.dst = dst
        self.packet_size = packet_size
        self.interval = rate.transmission_time(packet_size)
        self.packets_sent = 0
        sim.schedule_at(max(start_time, sim.now), self._send_next)

    def _send_next(self) -> None:
        packet = Packet(
            self.packet_size,
            payload=("background", self.packets_sent),
            src=self.node.name,
            dst=self.dst,
            created_at=self.sim.now,
        )
        self.node.send(packet)
        self.packets_sent += 1
        self.sim.schedule(self.interval, self._send_next)


class LatencyTracker:
    """Packet handler recording one-way delays of background packets."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.arrival_times: List[float] = []
        self.delays: List[float] = []

    def handle_packet(self, packet: Packet, node: Node) -> None:
        self.arrival_times.append(self.sim.now)
        self.delays.append(self.sim.now - packet.created_at)

    @property
    def packets_received(self) -> int:
        return len(self.delays)

    def delays_between(self, start: float, end: float) -> List[float]:
        """Delays of packets that arrived within [start, end]."""
        return [
            delay
            for at, delay in zip(self.arrival_times, self.delays)
            if start <= at <= end
        ]
