"""The per-hop sending machinery.

A :class:`HopSender` lives at one node and manages one direction of one
circuit hop: it buffers outbound cells, transmits as many as the
congestion window admits, timestamps transmissions, and converts
feedback arrivals into RTT samples for its
:class:`~repro.transport.controller.WindowController`.  The sender is
the one owner of the cells in flight (its send-time table); the
controller owns only the window the sender compares them with.

The class is deliberately decoupled from both the network layer and the
Tor layer:

* transmission happens through an injected ``transmit(cell, token)``
  callable (the Tor host wraps the cell into a packet and routes it);
* cells are opaque; the sender only touches ``cell.size`` and assigns
  ``cell.hop_seq`` (its per-hop sequence number);
* the optional *token* rides along with a cell from :meth:`enqueue` to
  the transmit callback, which is how a relay remembers which upstream
  cell to acknowledge when it forwards (see
  :mod:`repro.tor.hosts` for the feedback wiring).

This mirrors the paper's transport assumption: "a custom, window-based
transport protocol that allows low-latency communication between
neighboring relays" — the BackTap model.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from .config import TransportConfig
from .controller import WindowController

__all__ = ["HopSender", "HopBrokenError"]

#: Signature of the injected transmitter.
TransmitFn = Callable[[Any, Any], None]


class HopBrokenError(RuntimeError):
    """A reliable hop exhausted its retransmission budget.

    Raised from the retransmission timer when
    ``max_retransmission_rounds`` consecutive timeouts pass without a
    single acknowledgment — the per-hop analogue of a broken circuit.
    """


class HopSender:
    """Window-governed sender for one circuit hop.

    Parameters
    ----------
    sim:
        The simulator (used only for the clock).
    config:
        Transport tunables shared by the circuit.
    controller:
        The congestion-window controller owning this hop's cwnd.
    transmit:
        Callable invoked as ``transmit(cell, token)`` to actually put
        the cell on the wire toward the next hop.
    label:
        Diagnostic name, e.g. ``"c1:relay2->relay3"``.
    """

    def __init__(
        self,
        sim,
        config: TransportConfig,
        controller: WindowController,
        transmit: TransmitFn,
        label: str = "",
    ) -> None:
        self.sim = sim
        self.config = config
        self.controller = controller
        self.label = label
        self._transmit = transmit
        # config is frozen; caching the flag keeps the per-cell paths
        # free of dataclass attribute chains.
        self._reliable = config.reliable
        self._buffer: Deque[Tuple[Any, Any]] = deque()
        self._send_times: Dict[int, float] = {}
        self._next_seq = 0
        self.cells_sent = 0
        self.feedback_received = 0
        self.duplicate_feedback = 0
        self.max_buffer_depth = 0
        #: Failure hook: invoked with the :class:`HopBrokenError` when
        #: the hop exhausts its retransmission budget.  When set, the
        #: sender closes itself and reports through the hook instead of
        #: raising out of the timer callback (which would unwind the
        #: whole ``Simulator.run()``).  :class:`repro.tor.hosts.TorHost`
        #: wires this to circuit-level teardown so one broken hop
        #: cannot crash a full sweep.
        self.on_broken: Optional[Callable[["HopBrokenError"], None]] = None
        #: Whether this hop gave up after exhausting its budget.
        self.broken = False
        # --- reliability (go-back-N) state, active when config.reliable.
        self._unacked: Dict[int, Tuple[Any, Any]] = {}
        self._retransmitted: Set[int] = set()
        self._retx_timer = None
        self._timeout_streak = 0
        # The backed-off RTO last computed, until an RTT sample or a
        # change of the streak makes it stale (None).
        self._rto: Optional[float] = None
        self.retransmissions = 0
        self.timeouts = 0
        #: Optional pull source: consulted for the next ``(cell, token)``
        #: whenever the window has space and the push buffer is empty.
        #: Returning ``None`` means "nothing to send right now".  Stream
        #: schedulers use this to interleave streams cell by cell
        #: instead of pre-queueing whole transfers (which would create
        #: head-of-line blocking inside the hop buffer).
        self.cell_source: Optional[Callable[[], Optional[Tuple[Any, Any]]]] = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def buffered_cells(self) -> int:
        """Cells waiting for window space at this hop."""
        return len(self._buffer)

    @property
    def inflight_cells(self) -> int:
        """Cells transmitted but not yet acknowledged by feedback."""
        return len(self._send_times)

    @property
    def cwnd_cells(self) -> int:
        """Convenience passthrough to the controller's window."""
        return self.controller.cwnd_cells

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def enqueue(self, cell: Any, token: Any = None) -> None:
        """Accept *cell* for transmission toward the next hop."""
        buffer = self._buffer
        if not buffer and len(self._send_times) < self.controller.cwnd_cells:
            # Nothing ahead of it and the window open: pump() would pop
            # it straight back, so it counts as one buffered cell.
            self.max_buffer_depth = self.max_buffer_depth or 1
            self._transmit_one(cell, token)
            if self.cell_source is None:
                return
        else:
            buffer.append((cell, token))
            if len(buffer) > self.max_buffer_depth:
                self.max_buffer_depth = len(buffer)
            if len(self._send_times) >= self.controller.cwnd_cells:
                return  # the window is full: pump() would send nothing
        self.pump()

    def pump(self) -> None:
        """Transmit as many cells as the window allows.

        Buffered (pushed) cells go first; once the buffer is empty the
        optional :attr:`cell_source` is pulled for more.
        """
        send_times = self._send_times
        controller = self.controller
        while len(send_times) < controller.cwnd_cells:
            if self._buffer:
                cell, token = self._buffer.popleft()
            elif self.cell_source is not None:
                pulled = self.cell_source()
                if pulled is None:
                    return
                cell, token = pulled
            else:
                return
            self._transmit_one(cell, token)

    def _transmit_one(self, cell: Any, token: Any) -> None:
        seq = self._next_seq
        self._next_seq += 1
        cell.hop_seq = seq
        self._send_times[seq] = self.sim.now
        self.cells_sent += 1
        if self._reliable:
            self._unacked[seq] = (cell, token)
            self._arm_timer()
        self._transmit(cell, token)

    def counters(self) -> Dict[str, int]:
        """Snapshot of this hop's transport counters.

        The scenario engine sums these across a run's hop senders to
        report per-kind retransmission/timeout totals alongside the
        latency metrics.
        """
        return {
            "cells_sent": self.cells_sent,
            "feedback_received": self.feedback_received,
            "duplicate_feedback": self.duplicate_feedback,
            "retransmissions": self.retransmissions,
            "timeouts": self.timeouts,
            "max_buffer_depth": self.max_buffer_depth,
            "broken": int(self.broken),
        }

    def close(self) -> None:
        """Release the hop: drop pending work and disarm the timer.

        Called on circuit teardown (departure).  Buffered and in-flight
        cells are discarded (their feedback is never coming), and the
        retransmission timer — the only event a dormant sender keeps in
        the queue — is cancelled, so a departed circuit leaves nothing
        behind in the simulator.
        """
        self._buffer.clear()
        self._send_times.clear()
        self._unacked.clear()
        self._retransmitted.clear()
        self.cell_source = None
        self.on_broken = None
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None

    def on_feedback(self, seq: int) -> None:
        """Process a feedback ("moving") message for hop sequence *seq*.

        In reliable mode the acknowledgment is cumulative (the receiver
        only accepts in-order cells, so *seq* moving implies everything
        before it moved too); in the default lossless mode it is exact.
        Unknown or repeated sequence numbers are counted and ignored.
        """
        send_times = self._send_times
        if self._reliable:
            # Keys enter _send_times in ascending order (a retransmission
            # re-stores in place): the prefix ends at the first key > seq.
            acked = []
            for sent_seq in send_times:
                if sent_seq > seq:
                    break
                acked.append(sent_seq)
            if not acked:
                self.duplicate_feedback += 1
                return
            self._timeout_streak = 0
            self._rto = None
            now = self.sim.now
            for acked_seq in acked:
                sent_at = send_times.pop(acked_seq)
                self.feedback_received += 1
                self._unacked.pop(acked_seq, None)
                # Karn's rule: retransmitted cells yield no RTT sample.
                sampled = acked_seq not in self._retransmitted
                self._retransmitted.discard(acked_seq)
                self.controller.on_feedback(
                    now - sent_at, now, not send_times, sampled=sampled
                )
            self._arm_timer()
        else:
            sent_at = send_times.pop(seq, None)
            if sent_at is None:
                self.duplicate_feedback += 1
                return
            # Nothing is ever retransmitted without per-hop reliability:
            # every feedback is an RTT sample, with no go-back-N books.
            now = self.sim.now
            self.feedback_received += 1
            self.controller.on_feedback(now - sent_at, now, not send_times)
        if self._buffer or self.cell_source is not None:
            self.pump()

    # ------------------------------------------------------------------
    # Retransmission (go-back-N, RFC 6298 timeout with backoff)
    # ------------------------------------------------------------------

    def _arm_timer(self) -> None:
        timer = self._retx_timer
        if not self._unacked:
            if timer is not None:
                timer.cancel()
                self._retx_timer = None
            self._timeout_streak = 0
            self._rto = None
            return
        rto = self._rto
        if rto is None:
            config = self.config
            rto = self.controller.rtt.retransmission_timeout(
                minimum=config.rto_min,
                maximum=config.rto_max,
                fallback=config.rto_initial,
            )
            rto = self._rto = min(rto * (2 ** self._timeout_streak), config.rto_max)
        if timer is None:
            self._retx_timer = self.sim.schedule(rto, self._on_timeout)
        else:
            # Usually a later deadline: the timer moves without a heap
            # operation (see Simulator.rearm).
            self._retx_timer = self.sim.rearm(timer, rto, self._on_timeout)

    def _on_timeout(self) -> None:
        self._retx_timer = None
        if not self._unacked:
            return
        self.timeouts += 1
        self._timeout_streak += 1
        self._rto = None
        if self._timeout_streak > self.config.max_retransmission_rounds:
            error = HopBrokenError(
                "hop %s: %d retransmission rounds without progress"
                % (self.label or "?", self._timeout_streak - 1)
            )
            hook = self.on_broken
            if hook is None:
                raise error
            self.broken = True
            self.close()
            hook(error)
            return
        # Go-back-N: resend every unacked cell, oldest first.  Clones
        # are sent because the original objects may already be queued
        # (or mutated) further down the circuit.
        for seq in sorted(self._unacked):
            cell, token = self._unacked[seq]
            clone = cell.clone() if hasattr(cell, "clone") else cell
            clone.hop_seq = seq
            self._send_times[seq] = self._send_times.get(seq, self.sim.now)
            self._retransmitted.add(seq)
            self.retransmissions += 1
            self._transmit(clone, token)
        self._arm_timer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<HopSender %s cwnd=%d inflight=%d buffered=%d>" % (
            self.label or "?",
            self.controller.cwnd_cells,
            self.inflight_cells,
            self.buffered_cells,
        )
