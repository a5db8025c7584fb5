"""Egress queues for network interfaces.

Two disciplines are provided:

* :class:`FifoQueue` — unbounded FIFO.  The hop-by-hop transport
  (BackTap) bounds queue depth through its windows, so relays in the
  CircuitStart experiments use unbounded queues and the experiments
  *verify* boundedness rather than enforce it.
* :class:`DropTailQueue` — FIFO bounded in packets, dropping arrivals
  when full.  Used for generic network tests and for the ablation that
  checks CircuitStart never relies on loss as a signal.

Both keep :class:`QueueStats` so experiments can inspect backlog and
drop behaviour after a run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from .packet import Packet

__all__ = ["QueueStats", "FifoQueue", "DropTailQueue", "ScriptedLossQueue"]


@dataclass
class QueueStats:
    """Counters maintained by every queue discipline."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
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

    def offer(self, packet: Packet) -> bool:
        """Enqueue *packet*.  Always succeeds for the unbounded FIFO."""
        packets = self._packets
        packets.append(packet)
        stats = self.stats
        stats.enqueued += 1
        current = stats.current_bytes = stats.current_bytes + packet.size
        if len(packets) > stats.max_depth_packets:
            stats.max_depth_packets = len(packets)
        if current > stats.max_depth_bytes:
            stats.max_depth_bytes = current
        return True

    def pass_through(self, packet: Packet) -> bool:
        """``offer`` then ``take`` on an empty queue, minus the deque round
        trip: the verdict an idle transmitter (whose queue is empty by
        construction) asks for before putting *packet* on the wire."""
        stats = self.stats
        stats.enqueued += 1
        stats.dequeued += 1
        stats.max_depth_packets = stats.max_depth_packets or 1
        if packet.size > stats.max_depth_bytes:
            stats.max_depth_bytes = packet.size
        return True

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


class DropTailQueue(FifoQueue):
    """A FIFO bounded in packets; arrivals beyond capacity are dropped."""

    def __init__(self, capacity_packets: int) -> None:
        if capacity_packets <= 0:
            raise ValueError(
                "capacity must be a positive packet count, got %r" % capacity_packets
            )
        super().__init__()
        self.capacity_packets = int(capacity_packets)

    def offer(self, packet: Packet) -> bool:
        """Enqueue *packet* unless the queue is full; report acceptance."""
        if len(self) >= self.capacity_packets:
            self.stats.dropped += 1
            return False
        return super().offer(packet)


class ScriptedLossQueue(FifoQueue):
    """A FIFO that drops exactly the arrivals named in *drop_indices*.

    Arrival indices count every ``offer`` or ``pass_through`` (0-based),
    dropped or not.  Deterministic by construction — the loss-recovery
    tests script precisely which cell or feedback message disappears.
    """

    def __init__(self, drop_indices) -> None:
        super().__init__()
        self.drop_indices = frozenset(int(i) for i in drop_indices)
        self._arrivals = 0

    def offer(self, packet: Packet) -> bool:
        index = self._arrivals
        self._arrivals += 1
        if index in self.drop_indices:
            self.stats.dropped += 1
            return False
        return super().offer(packet)

    def pass_through(self, packet: Packet) -> bool:
        return self.offer(packet) and self.take() is packet
