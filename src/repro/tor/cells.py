"""Tor cells.

Tor packages all traffic into fixed-size **cells** (512 bytes on the
wire).  This module defines the cell kinds the reproduction needs:

* :class:`DataCell` — carries application payload along the circuit
  (up to :data:`~repro.transport.config.CELL_PAYLOAD` bytes each);
* :class:`FeedbackCell` — the CircuitStart/BackTap "moving" message a
  relay sends to its predecessor when it forwards a cell; small
  (53 bytes), so the reverse path stays effectively uncongested;
* :class:`DestroyCell` — circuit teardown.

Cells carry a ``hop_seq`` field that the per-hop transport rewrites on
every hop: it is the sequence number the *current* sender assigned, and
the value the next relay echoes back inside a :class:`FeedbackCell`.
"""

from __future__ import annotations

import enum
from typing import List

from ..transport.config import CELL_PAYLOAD, CELL_SIZE, FEEDBACK_SIZE

__all__ = [
    "CellKind",
    "Cell",
    "DataCell",
    "FeedbackCell",
    "DestroyCell",
    "cells_for_transfer",
]


class CellKind(enum.Enum):
    """Discriminates cell processing at a Tor host."""

    DATA = "data"
    FEEDBACK = "feedback"
    DESTROY = "destroy"


class Cell:
    """Base class for every cell travelling over a circuit."""

    __slots__ = ("circuit_id", "kind", "size", "hop_seq")

    def __init__(self, circuit_id: int, kind: CellKind, size: int) -> None:
        if not size > 0 or size % 1:  # also NaN and inf
            raise ValueError(
                "cell size must be a positive whole number of bytes, got %r" % size
            )
        self.circuit_id = circuit_id
        self.kind = kind
        self.size = int(size)
        self.hop_seq: int = -1  # assigned by the hop sender at transmit time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s circuit=%d seq=%d>" % (
            type(self).__name__,
            self.circuit_id,
            self.hop_seq,
        )


class DataCell(Cell):
    """A fixed-size relay cell carrying application bytes.

    ``is_last`` marks the final cell of an application *message*;
    ``message_id`` identifies that message for per-message latency
    accounting by multi-stream sinks (-1 when unused).
    """

    __slots__ = ("stream_id", "offset", "payload_bytes", "is_last", "message_id")

    def __init__(
        self,
        circuit_id: int,
        stream_id: int,
        offset: int,
        payload_bytes: int,
        is_last: bool = False,
    ) -> None:
        if not 0 < payload_bytes <= CELL_PAYLOAD:
            raise ValueError(
                "data cell payload must be in (0, %d], got %r"
                % (CELL_PAYLOAD, payload_bytes)
            )
        if offset < 0:
            raise ValueError("stream offset must be non-negative")
        super().__init__(circuit_id, CellKind.DATA, CELL_SIZE)
        self.stream_id = stream_id
        self.offset = offset
        self.payload_bytes = payload_bytes
        self.is_last = is_last
        self.message_id = -1

    def clone(self) -> "DataCell":
        """An independent copy, for per-hop retransmission.

        The original object may already be queued further down the
        circuit, so a retransmit must not share (and later mutate) its
        ``hop_seq``.
        """
        copy = DataCell(
            self.circuit_id,
            self.stream_id,
            self.offset,
            self.payload_bytes,
            is_last=self.is_last,
        )
        copy.hop_seq = self.hop_seq
        copy.message_id = self.message_id
        return copy


class FeedbackCell(Cell):
    """The "moving" message: *acked_seq* was forwarded by the successor."""

    __slots__ = ("acked_seq",)

    def __init__(self, circuit_id: int, acked_seq: int) -> None:
        if acked_seq < 0:
            raise ValueError("acked_seq must be non-negative, got %r" % acked_seq)
        # Cell.__init__ spelled out: one is built per forwarded cell.
        self.circuit_id = circuit_id
        self.kind = CellKind.FEEDBACK
        self.size = FEEDBACK_SIZE
        self.hop_seq = -1
        self.acked_seq = acked_seq


class DestroyCell(Cell):
    """Tears down per-hop circuit state, travelling away from its origin.

    A teardown started mid-circuit sweeps toward both ends; one started
    at an end sweeps to the other.
    """

    __slots__ = ()

    def __init__(self, circuit_id: int) -> None:
        super().__init__(circuit_id, CellKind.DESTROY, CELL_SIZE)


def cells_for_transfer(
    circuit_id: int,
    total_bytes: int,
    stream_id: int = 1,
) -> List[DataCell]:
    """Split *total_bytes* of application payload into data cells."""
    if total_bytes < 0:
        raise ValueError("transfer size must be non-negative")
    cells: List[DataCell] = []
    offset = 0
    while offset < total_bytes:
        chunk = min(CELL_PAYLOAD, total_bytes - offset)
        cells.append(
            DataCell(
                circuit_id,
                stream_id,
                offset,
                chunk,
                is_last=(offset + chunk >= total_bytes),
            )
        )
        offset += chunk
    return cells
