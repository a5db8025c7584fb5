"""Network packets.

A :class:`Packet` is the unit the link layer moves around.  In this
reproduction a packet usually carries exactly one Tor cell (see
:mod:`repro.tor.cells`) as its payload; the link layer only looks at the
size, source and destination.

The per-packet state is slotted (:attr:`Packet.on_tx_start` is the only
field the forwarding path writes), so that moving a cell across a link
allocates no dictionaries.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["Packet"]


class Packet:
    """An immutable-size datagram travelling through the simulated network.

    Parameters
    ----------
    size:
        Wire size in bytes (headers included): a positive whole number
        (an integral float is stored as an ``int``).
    payload:
        Arbitrary application object, typically a Tor cell.
    src, dst:
        Names of the originating and target nodes.  The destination
        drives static routing (:mod:`repro.net.routing`).
    """

    __slots__ = ("size", "payload", "src", "dst", "created_at",
                 "on_tx_start", "on_tx_start_arg")

    def __init__(
        self,
        size: int,
        payload: Any = None,
        src: str = "",
        dst: str = "",
        created_at: float = 0.0,
    ) -> None:
        if not size > 0 or size % 1:  # also NaN and inf
            raise ValueError(
                "packet size must be a positive whole number of bytes, got %r" % size
            )
        self.size = int(size)
        self.payload = payload
        self.src = src
        self.dst = dst
        self.created_at = created_at
        #: One-shot hook fired when serialization begins at the first
        #: link this packet traverses; called as ``on_tx_start(arg)``
        #: with :attr:`on_tx_start_arg`.  Slotted so the Tor feedback
        #: path needs no per-cell closure or dict entry.
        self.on_tx_start: Optional[Callable[[Any], None]] = None
        self.on_tx_start_arg: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Packet %s->%s %dB %r>" % (
            self.src or "?",
            self.dst or "?",
            self.size,
            type(self.payload).__name__ if self.payload is not None else None,
        )
