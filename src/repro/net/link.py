"""Point-to-point links and network interfaces.

The link model matches what the CircuitStart evaluation needs from
ns-3's point-to-point devices:

* **store-and-forward serialization** — an interface transmits one
  packet at a time; a packet of ``size`` bytes occupies the transmitter
  for ``size / rate`` seconds;
* **propagation delay** — after serialization the packet takes a fixed
  ``delay`` to reach the remote end;
* **an egress queue** — packets arriving while the transmitter is busy
  wait in the interface's unbounded FIFO, which never drops.  Loss
  happens only in the interface's ``fault_model``.

Links are *unidirectional*; :func:`connect_duplex` (in
:mod:`repro.net.topology`) wires two of them between a pair of nodes.
The receiving side hands packets to ``node.deliver``.

This is the engine's hottest code: every cell crossing every link costs
one pass through the transmit body of :meth:`Interface.send`.
Transmission times are therefore memoized per packet size (cells come
in exactly two sizes, 512 B data and 53 B feedback), the delivery event
goes straight onto the simulator's heap, and the callbacks are
pre-bound methods instead of per-cell closures.

**One event per uncontended transmission.**  Hop-by-hop feedback keeps
relay queues short, so most transmissions end with nothing waiting
behind them, and a "transmission complete" event would wake up to an
empty queue.  The interface therefore keeps no such event by default.
It remembers *when* the wire frees up (``_free_at``) and *reserves* the
sequence number the completion event would have drawn (see
:meth:`repro.sim.simulator.Simulator.reserve_seq`).  Only when
:meth:`Interface.send` finds the wire still occupied is the event
pushed, at that reserved ``(time, seq)``; it then fires exactly where
an eagerly scheduled one would have, so simultaneous events keep their
order and every simulated timestamp is unchanged.  (One thing a caller
can see: the end of a transmission with nothing behind it is no longer
an event, so ``sim.run()`` to exhaustion leaves the clock at the last
delivery, not at the moment a dropped last packet would have cleared
the wire.  ``run_until`` is unaffected.)

**An idle wire has an empty backlog.**  Packets wait only behind a
transmission, and whoever queues the first one schedules the wake that
drains them, so ``not _wake_pending`` implies an empty backlog.  A
packet sent onto an idle wire goes straight into the transmit body in
:meth:`Interface.send` and touches no queue statistic; the wake runs
the same body on the head of the backlog.  Deliveries and wakes are
pushed with :attr:`~repro.sim.simulator.Simulator.push` under a number
from ``reserve_seq``, so one link traversal costs the ``send`` frame
plus the delivery event, which is the peer's bound ``deliver`` itself.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from ..units import Rate
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import Node

__all__ = ["Link", "Interface"]

#: The arguments of a wake: ``send(None)``.
_WAKE = (None,)


class Link:
    """A unidirectional transmission medium: a rate plus a delay.

    The link itself is stateless with respect to traffic; contention is
    modelled by the sending :class:`Interface`.
    """

    __slots__ = ("_rate", "delay", "name", "_tx_times")

    def __init__(self, rate: Rate, delay: float, name: str = "") -> None:
        if not 0 <= delay < float("inf"):  # also NaN
            raise ValueError("propagation delay must be in [0, inf), got %r" % delay)
        self._rate = rate
        self.delay = float(delay)
        self.name = name
        #: size -> serialization time memo.  Traffic is dominated by two
        #: packet sizes (data cell, feedback cell), so this stays tiny
        #: and turns a division per cell into a dict hit.
        self._tx_times: Dict[int, float] = {}

    @property
    def rate(self) -> Rate:
        """The link's transmission rate; assignable mid-simulation."""
        return self._rate

    @rate.setter
    def rate(self, rate: Rate) -> None:
        # Dynamic-conditions experiments retune links mid-run
        # (set_duplex_rate); the memoized serialization times must not
        # outlive the rate they were computed from.
        self._rate = rate
        self._tx_times = {}

    def transmission_time_for(self, size: int) -> float:
        """Serialization time of *size* bytes on this link (memoized)."""
        time = self._tx_times.get(size)
        if time is None:
            time = self._tx_times[size] = self._rate.transmission_time(size)
        return time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Link %s %s delay=%.4fs>" % (self.name or "?", self.rate, self.delay)


class Interface:
    """The sending endpoint of a unidirectional link.

    An interface belongs to a node, keeps an unbounded FIFO backlog of
    packets waiting for the wire (it never drops) and serializes
    packets onto its :class:`Link` one at a time.  Delivery to the
    remote node happens ``tx_time + delay`` after transmission starts.

    Statistics (``packets_sent``, ``bytes_sent``, ``backlog_packets``
    and its high-water mark ``max_backlog_packets``) feed the
    experiment reports.

    ``fault_model`` is an optional :class:`~repro.net.faults.FaultModel`
    filtering every transmission: its verdict drops the packet or adds
    delivery delay.  ``None`` (the default) costs the transmit path one
    test.
    """

    def __init__(self, sim, owner: "Node", link: Link, name: str = "") -> None:
        self._sim = sim
        self.owner = owner
        self.link = link
        self.name = name or ("%s.if" % owner.name)
        self.peer: Optional["Node"] = None  # set when wired into a topology
        # The wire is occupied until the simulator passes
        # (_free_at, _free_seq): the place in the event order where the
        # current transmission's completion event sits, or would sit.
        self._free_at = float("-inf")
        self._free_seq = -1
        # Whether that completion event (the wake) is actually in the
        # event queue (someone is waiting for the wire), or the hook of
        # a starting transmission is still running.  Either way send()
        # only queues.
        self._wake_pending = False
        # Packets waiting behind the transmission on the wire, oldest first.
        self._waiting: Deque[Packet] = deque()
        self.packets_sent = 0
        self.bytes_sent = 0
        #: The most packets that ever waited at once behind a transmission.
        self.max_backlog_packets = 0
        self.fault_model = None
        # Bound methods allocated once (here and in attach_peer) instead
        # of once per cell in the transmit loop.
        self._on_wake = self.send
        self._on_deliver = None

    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether a packet is currently being serialized.

        Nothing in the package reads it: the link reference test
        (``tests/test_net_link_reference.py``) compares it with the
        eager transmitter's flag after every probe and hook.
        """
        if self._wake_pending:
            return True
        sim = self._sim
        now = sim.now
        return now < self._free_at or (
            now == self._free_at and sim.current_seq < self._free_seq
        )

    @property
    def backlog_packets(self) -> int:
        """Packets waiting for the wire (excluding the one in flight)."""
        return len(self._waiting)

    def attach_peer(self, peer: "Node") -> None:
        """Declare the node at the far end of the link."""
        self.peer = peer
        self._on_deliver = peer.deliver

    def send(self, packet: Optional[Packet]) -> None:
        """Queue *packet* for transmission; start transmitting if idle.

        ``send(None)`` is the wake: the completion event of a
        transmission others waited on, which puts the head of the
        backlog on the wire.
        """
        sim = self._sim
        waiting = self._waiting
        if packet is None:
            packet = waiting.popleft()
        elif self.peer is None:
            raise RuntimeError("interface %s has no peer attached" % self.name)
        elif self._wake_pending or sim.now < self._free_at or (
            sim.now == self._free_at and sim.current_seq < self._free_seq
        ):
            # The wire is occupied.  If nobody was waiting for it yet,
            # the completion event is needed after all.
            if not self._wake_pending:
                self._wake_pending = True
                sim.push((self._free_at, self._free_seq, self._on_wake, _WAKE))
            waiting.append(packet)
            if len(waiting) > self.max_backlog_packets:
                self.max_backlog_packets = len(waiting)
            return
        link = self.link
        size = packet.size
        tx_time = link._tx_times.get(size)
        if tx_time is None:
            tx_time = link.transmission_time_for(size)
        self.packets_sent += 1
        self.bytes_sent += size
        # One-shot hook: fires when serialization begins at the first
        # link the packet traverses.  The Tor layer uses it to issue
        # feedback at the moment a cell is *actually forwarded* onto
        # the wire (queueing in this interface included), which is the
        # paper's feedback semantics.  The wire counts as occupied
        # while it runs, so a send() from inside the hook queues up.
        hook = packet.on_tx_start
        if hook is not None:
            packet.on_tx_start = None
            self._wake_pending = True
            hook(packet.on_tx_start_arg)
        # The completion event's place in the event order is taken here
        # (after the hook, before the delivery), but the event itself is
        # only pushed if a packet is already waiting behind this one.
        # Only a wake or a hook, which both leave the flag set, can have
        # left one; send() on an idle wire found none.
        now = sim.now
        push = sim.push
        reserve_seq = sim.reserve_seq
        free_at = self._free_at = now + tx_time
        seq = self._free_seq = reserve_seq()
        if waiting:
            push((free_at, seq, self._on_wake, _WAKE))
        else:
            self._wake_pending = False
        fault = self.fault_model
        if fault is None:
            push((now + (tx_time + link.delay), reserve_seq(), self._on_deliver,
                  (packet, self)))
            return
        # A negative verdict drops the packet: the transmitter was still
        # occupied for the full serialization time, but nothing is
        # delivered.  Otherwise the verdict is extra delay on top of the
        # lossless offset (parenthesized as above, so a zero verdict
        # delivers at the bit-identical time).
        verdict = fault.on_transmit(packet)
        if verdict >= 0.0:
            push((now + ((tx_time + link.delay) + verdict), reserve_seq(),
                  self._on_deliver, (packet, self)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Interface %s -> %s backlog=%d>" % (
            self.name,
            self.peer.name if self.peer else "?",
            len(self._waiting),
        )
