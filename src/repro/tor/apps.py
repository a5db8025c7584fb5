"""Application endpoints attached to circuits.

* :class:`BulkSource` — the workload of the paper's evaluation:
  "transferring a fixed amount of data".  At its start time it splits
  the payload into data cells and hands them to the circuit's source
  hop sender; the transport's windows pace everything from there.
* :class:`SinkApp` — the receiving application.  It counts delivered
  payload bytes, records first/last cell times and triggers a
  :class:`~repro.sim.process.Waiter` on completion, which is how
  experiments measure **time to last byte** (Figure 1, lower plot).
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.process import Waiter
from ..transport.hop import HopSender
from .cells import DataCell, cells_for_transfer

__all__ = ["BulkSource", "SinkApp"]


class BulkSource:
    """Sends a fixed number of payload bytes over a circuit, once."""

    def __init__(
        self,
        sim,
        sender: HopSender,
        circuit_id: int,
        total_bytes: int,
        start_time: float = 0.0,
        stream_id: int = 1,
    ) -> None:
        if total_bytes <= 0:
            raise ValueError("bulk transfer must be positive, got %r" % total_bytes)
        self.sim = sim
        self.sender = sender
        self.circuit_id = circuit_id
        self.total_bytes = total_bytes
        self.stream_id = stream_id
        self.cell_count = 0
        self._start_event = sim.schedule_at(max(start_time, sim.now), self._start)

    def cancel(self) -> None:
        """Abort the transfer before it starts (idempotent).

        Needed when a circuit fails between planning and its start
        time: enqueueing on the closed sender would re-arm its
        retransmission timer and leave dead events behind.
        """
        if self._start_event is not None:
            self._start_event.cancel()
            self._start_event = None

    def _start(self) -> None:
        self._start_event = None
        cells: List[DataCell] = cells_for_transfer(
            self.circuit_id, self.total_bytes, stream_id=self.stream_id
        )
        self.cell_count = len(cells)
        for cell in cells:
            self.sender.enqueue(cell)


class SinkApp:
    """Receives a transfer and records completion timing."""

    def __init__(self, sim, circuit_id: int, expected_bytes: int) -> None:
        if expected_bytes <= 0:
            raise ValueError("expected_bytes must be positive, got %r" % expected_bytes)
        self.sim = sim
        self.circuit_id = circuit_id
        self.expected_bytes = expected_bytes
        self.received_bytes = 0
        self.cells_received = 0
        self.first_cell_time: Optional[float] = None
        self.last_cell_time: Optional[float] = None
        #: Triggered with the completion timestamp when the last byte lands.
        self.completed = Waiter(sim)

    @property
    def done(self) -> bool:
        """Whether the full payload has arrived."""
        return self.received_bytes >= self.expected_bytes

    def on_cell(self, cell: DataCell) -> None:
        """Deliver one data cell's payload to the application."""
        now = self.sim.now
        if self.first_cell_time is None:
            self.first_cell_time = now
        self.last_cell_time = now
        self.cells_received += 1
        self.received_bytes += cell.payload_bytes
        if self.done and not self.completed.triggered:
            self.completed.trigger(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<SinkApp circuit=%d %d/%d bytes>" % (
            self.circuit_id,
            self.received_bytes,
            self.expected_bytes,
        )
