"""Network packets.

A :class:`Packet` is the unit the link layer moves around.  In this
reproduction a packet usually carries exactly one Tor cell (see
:mod:`repro.tor.cells`) as its payload; the link layer only looks at the
size, source and destination.

The per-packet state the forwarding path actually reads is slotted
(:attr:`Packet.hops`, :attr:`Packet.on_tx_start`) so that moving a cell
across a link allocates no dictionaries.  A metadata dict for ad-hoc
tracing still exists — mirroring how nstor attaches ns-3 tags — but is
created lazily on first access and never influences forwarding.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

__all__ = ["Packet"]

_packet_uids = itertools.count(1)


class Packet:
    """An immutable-size datagram travelling through the simulated network.

    Parameters
    ----------
    size:
        Wire size in bytes (headers included); must be positive.
    payload:
        Arbitrary application object, typically a Tor cell.
    src, dst:
        Names of the originating and target nodes.  The destination
        drives static routing (:mod:`repro.net.routing`).
    """

    __slots__ = ("uid", "size", "payload", "src", "dst", "created_at",
                 "hops", "on_tx_start", "on_tx_start_arg", "_trace")

    def __init__(
        self,
        size: int,
        payload: Any = None,
        src: str = "",
        dst: str = "",
        created_at: float = 0.0,
    ) -> None:
        if size <= 0:
            raise ValueError("packet size must be positive, got %r" % size)
        self.uid = next(_packet_uids)
        self.size = int(size)
        self.payload = payload
        self.src = src
        self.dst = dst
        self.created_at = created_at
        #: Links traversed so far; ``Node.deliver`` bumps it (slotted).
        self.hops = 0
        #: One-shot hook fired when serialization begins at the first
        #: link this packet traverses; called as ``on_tx_start(arg)``
        #: with :attr:`on_tx_start_arg`.  Slotted so the Tor feedback
        #: path needs no per-cell closure or dict entry.
        self.on_tx_start: Optional[Callable[[Any], None]] = None
        self.on_tx_start_arg: Any = None
        self._trace: Optional[Dict[str, Any]] = None

    @property
    def metadata(self) -> Dict[str, Any]:
        """Lazy tracing dict (measurement only, never forwarding state)."""
        trace = self._trace
        if trace is None:
            trace = self._trace = {}
        return trace

    def hop_count(self) -> int:
        """Number of links this packet has traversed so far."""
        return self.hops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Packet #%d %s->%s %dB %r>" % (
            self.uid,
            self.src or "?",
            self.dst or "?",
            self.size,
            type(self.payload).__name__ if self.payload is not None else None,
        )
