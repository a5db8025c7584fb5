"""Egress queues for network interfaces.

:class:`FifoQueue` is an unbounded FIFO and never drops.  The hop-by-hop
transport (BackTap) bounds queue depth through its windows, so the
CircuitStart experiments *verify* boundedness rather than enforce it.
Packets are lost in one place only: an interface's ``fault_model``
(:mod:`repro.net.faults`).

The queue keeps :class:`QueueStats` so experiments can inspect backlog
after a run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from .packet import Packet

__all__ = ["QueueStats", "FifoQueue"]


@dataclass
class QueueStats:
    """Counters maintained by the queue."""

    enqueued: int = 0
    dequeued: int = 0
    max_depth_packets: int = 0
    max_depth_bytes: int = 0
    current_bytes: int = 0


class FifoQueue:
    """An unbounded first-in-first-out packet queue."""

    def __init__(self) -> None:
        self._packets: Deque[Packet] = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._packets)

    def __bool__(self) -> bool:
        return bool(self._packets)

    @property
    def bytes_queued(self) -> int:
        """Total bytes currently waiting in the queue."""
        return self.stats.current_bytes

    def offer(self, packet: Packet) -> None:
        """Enqueue *packet*."""
        packets = self._packets
        packets.append(packet)
        stats = self.stats
        stats.enqueued += 1
        current = stats.current_bytes = stats.current_bytes + packet.size
        if len(packets) > stats.max_depth_packets:
            stats.max_depth_packets = len(packets)
        if current > stats.max_depth_bytes:
            stats.max_depth_bytes = current

    def pass_through(self, packet: Packet) -> None:
        """``offer`` then ``take`` on an empty queue, minus the deque round
        trip: the statistics of an idle transmitter (whose queue is empty
        by construction) putting *packet* straight on the wire."""
        stats = self.stats
        stats.enqueued += 1
        stats.dequeued += 1
        stats.max_depth_packets = stats.max_depth_packets or 1
        if packet.size > stats.max_depth_bytes:
            stats.max_depth_bytes = packet.size

    def take(self) -> Optional[Packet]:
        """Dequeue and return the oldest packet, or ``None`` when empty."""
        if not self._packets:
            return None
        packet = self._packets.popleft()
        stats = self.stats
        stats.dequeued += 1
        stats.current_bytes -= packet.size
        return packet

    def peek(self) -> Optional[Packet]:
        """Return (without removing) the oldest packet, or ``None``."""
        return self._packets[0] if self._packets else None

    def clear(self) -> int:
        """Remove every queued packet; return how many were removed."""
        removed = len(self._packets)
        while self._packets:
            self.take()
        return removed
