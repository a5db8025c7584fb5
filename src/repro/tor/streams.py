"""Stream multiplexing over circuits.

Tor multiplexes many application *streams* over one circuit.  This
module adds that layer on top of the per-hop transport:

* :class:`Stream` — one logical byte stream with queued messages;
* :class:`StreamScheduler` — the source-side multiplexer.  It feeds the
  circuit's :class:`~repro.transport.hop.HopSender` through the
  sender's pull interface, choosing the next stream **round-robin**
  per cell, so a small interactive message never waits behind a whole
  bulk transfer (no head-of-line blocking inside the hop buffer);
* :class:`MultiStreamSink` — the sink-side demultiplexer, tracking
  per-stream and per-message delivery times.

The paper motivates CircuitStart with Tor's interactive workloads; the
:mod:`repro.experiments.interactive` experiment uses these classes to
measure interactive message latency while a bulk stream shares the
circuit.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim.process import Waiter
from ..transport.config import CELL_PAYLOAD
from ..transport.hop import HopSender
from .cells import DataCell

__all__ = ["Stream", "StreamScheduler", "MultiStreamSink", "MessageRecord"]


class MessageRecord:
    """Delivery bookkeeping for one application message on a stream."""

    __slots__ = ("stream_id", "message_id", "size", "queued_at", "last_byte_at")

    def __init__(self, stream_id: int, message_id: int, size: int,
                 queued_at: float) -> None:
        self.stream_id = stream_id
        self.message_id = message_id
        self.size = size
        self.queued_at = queued_at
        self.last_byte_at: Optional[float] = None

    @property
    def latency(self) -> float:
        """Queue-to-last-byte latency (raises while undelivered)."""
        if self.last_byte_at is None:
            raise RuntimeError(
                "message %d on stream %d not fully delivered"
                % (self.message_id, self.stream_id)
            )
        return self.last_byte_at - self.queued_at


class Stream:
    """One logical byte stream: a FIFO of pending messages."""

    def __init__(self, stream_id: int) -> None:
        if stream_id < 1:
            raise ValueError("stream ids start at 1, got %r" % stream_id)
        self.stream_id = stream_id
        self._pending: Deque[Tuple[MessageRecord, int]] = deque()  # (msg, sent)
        self._next_message_id = 0
        self._offset = 0
        self.messages: List[MessageRecord] = []

    def queue_message(self, size: int, now: float) -> MessageRecord:
        """Append *size* application bytes as one message."""
        if size <= 0:
            raise ValueError("message size must be positive, got %r" % size)
        record = MessageRecord(self.stream_id, self._next_message_id, size, now)
        self._next_message_id += 1
        self.messages.append(record)
        self._pending.append((record, 0))
        return record

    def next_cell(self, circuit_id: int) -> Optional[DataCell]:
        """Carve the next cell's worth of bytes off the pending queue."""
        if not self._pending:
            return None
        record, sent = self._pending[0]
        chunk = min(CELL_PAYLOAD, record.size - sent)
        is_last_of_message = sent + chunk >= record.size
        cell = DataCell(
            circuit_id,
            self.stream_id,
            self._offset,
            chunk,
            is_last=is_last_of_message,
        )
        # Tag the cell with the message it finishes so the sink can
        # timestamp per-message delivery (structural metadata; real Tor
        # would carry this in the relay header's stream framing).
        cell.message_id = record.message_id  # type: ignore[attr-defined]
        self._offset += chunk
        if is_last_of_message:
            self._pending.popleft()
        else:
            self._pending[0] = (record, sent + chunk)
        return cell


class StreamScheduler:
    """Round-robin, cell-granular multiplexer feeding one hop sender."""

    def __init__(self, sender: HopSender, circuit_id: int) -> None:
        self.sender = sender
        self.circuit_id = circuit_id
        self._streams: Dict[int, Stream] = {}
        self._order: Deque[int] = deque()
        sender.cell_source = self._next_cell

    def open_stream(self, stream_id: int) -> Stream:
        """Create and register a stream on the circuit."""
        if stream_id in self._streams:
            raise ValueError("stream %d already open" % stream_id)
        stream = Stream(stream_id)
        self._streams[stream_id] = stream
        self._order.append(stream_id)
        return stream

    def send_message(self, stream_id: int, size: int, now: float) -> MessageRecord:
        """Queue a message and kick the sender."""
        record = self._streams[stream_id].queue_message(size, now)
        self.sender.pump()
        return record

    def _next_cell(self) -> Optional[Tuple[Any, Any]]:
        """Pull hook: the next cell, round-robin across busy streams."""
        for __ in range(len(self._order)):
            stream_id = self._order[0]
            self._order.rotate(-1)
            cell = self._streams[stream_id].next_cell(self.circuit_id)
            if cell is not None:
                return cell, None
        return None


class MultiStreamSink:
    """Sink-side demultiplexer with per-message timing.

    Satisfies the TorHost sink-app contract (``on_cell``).  The
    ``completed`` waiter triggers when *expected_bytes* have arrived
    across all streams (0 = never, for open-ended workloads).
    """

    def __init__(self, sim, circuit_id: int, expected_bytes: int = 0) -> None:
        self.sim = sim
        self.circuit_id = circuit_id
        self.expected_bytes = expected_bytes
        self.received_bytes = 0
        #: When the first cell (any stream) arrived — the circuit's
        #: time-to-first-byte reference, mirroring SinkApp.
        self.first_cell_time: Optional[float] = None
        self.per_stream_bytes: Dict[int, int] = {}
        self.delivered_messages: List[Tuple[int, int, float]] = []
        self.completed = Waiter(sim)
        #: message-completion callbacks: (stream_id, message_id, time).
        self.on_message: Optional[Callable[[int, int, float], None]] = None

    @property
    def done(self) -> bool:
        return self.expected_bytes > 0 and self.received_bytes >= self.expected_bytes

    def on_cell(self, cell: DataCell) -> None:
        now = self.sim.now
        if self.first_cell_time is None:
            self.first_cell_time = now
        self.received_bytes += cell.payload_bytes
        self.per_stream_bytes[cell.stream_id] = (
            self.per_stream_bytes.get(cell.stream_id, 0) + cell.payload_bytes
        )
        if cell.is_last:
            message_id = getattr(cell, "message_id", -1)
            self.delivered_messages.append((cell.stream_id, message_id, now))
            if self.on_message is not None:
                self.on_message(cell.stream_id, message_id, now)
        if self.done and not self.completed.triggered:
            self.completed.trigger(now)
