"""Per-node Tor protocol state (:class:`TorHost`).

A :class:`TorHost` is the packet handler installed on every node that
participates in circuits (clients, relays, exits, destination servers —
the star topology's hub stays a dumb forwarder).  One host serves many
circuits; per-circuit state lives in :class:`CircuitState`.

Roles per circuit
-----------------
* **source** — owns a :class:`~repro.transport.hop.HopSender` toward
  the first relay; application data enters here.
* **relay** — owns a hop sender toward the next hop *and* issues a
  :class:`~repro.tor.cells.FeedbackCell` to its predecessor at the
  moment it forwards a cell ("when forwarding a cell to its successor,
  each relay issues a feedback message to its predecessor").
* **sink** — delivers payload to the application and acknowledges every
  cell immediately (consumption counts as forwarding).

The feedback wiring uses the hop sender's *token* mechanism: when a
relay receives a data cell, the upstream sequence number rides along as
the token; when the relay's own window finally admits the cell, the
transmit callback fires and the token tells the host which upstream
sequence to acknowledge.  RTTs measured by the predecessor therefore
include exactly the successor's queueing — the signal CircuitStart
feeds into its Vegas detector.

A host takes its node's deliveries itself (``handles_delivery``): a
link's delivery event calls ``handle_packet(packet)``, which does in
that one frame what ``Node.deliver`` does for other handlers — drop and
count while the node is down, count, hand on a packet addressed to
another node — and then handles the cell.  Called with a node as well,
``handle_packet(packet, node)`` is only the cell handling, as a plain
packet handler.

What is fixed per circuit is resolved per circuit: registration looks
up the egress toward each neighbour once (``node.interface_to``; any
object with ``send(packet) -> bool`` will do) and closes over it.
``CircuitState.feedback(acked_seq)`` builds the feedback cell and its
packet and hands them to that egress in one frame, as a forwarded
packet's ``on_tx_start`` hook or straight from ``handle_packet`` (sink
delivery, duplicate re-ack); the sender's ``transmit`` does the same
toward the next hop.  Both build their wire objects with a module-level
builder (:func:`_data_packet`, :func:`_feedback_packet`) that fills the
slots directly instead of going through ``type.__call__`` into
``__init__``.  Teardown, a relay kill and a recycled id replace the
``CircuitState``, the only invalidation needed.  DESTROY alone, a
handful of cells per run, still routes per cell through ``node.send``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from ..net.node import Node
from ..net.packet import Packet
from ..net.topology import Topology
from ..sim.simulator import Simulator
from ..transport.config import FEEDBACK_SIZE, TransportConfig
from ..transport.controller import WindowController
from ..transport.hop import HopSender
from .cells import Cell, CellKind, DestroyCell, FeedbackCell

__all__ = ["CircuitState", "TorHost", "released"]

# handle_packet compares against these by identity; a dict keyed on the
# enum would pay Enum.__hash__, a Python-level call, per cell.
_DATA = CellKind.DATA
_FEEDBACK = CellKind.FEEDBACK
_DESTROY = CellKind.DESTROY

#: ``handle_packet``'s default second argument: the call is a link's
#: delivery event, so the node's own delivery work happens there too.
_OFF_A_LINK = object()

_new = object.__new__


def _data_packet(
    cell: Cell, src: str, dst: str, now: float,
    hook: Optional[Callable[[Any], None]], arg: Any,
) -> Packet:
    """``Packet(cell.size, cell, src, dst, now)`` with ``on_tx_start`` set
    to *hook* and its argument to *arg*, built without ``type.__call__``
    or ``Packet.__init__``.  The size was checked when the cell was built."""
    packet = _new(Packet)
    packet.size = cell.size
    packet.payload = cell
    packet.src = src
    packet.dst = dst
    packet.created_at = now
    packet.on_tx_start = hook
    packet.on_tx_start_arg = arg
    return packet


def _feedback_packet(
    circuit_id: int, acked_seq: int, src: str, dst: str, now: float
) -> Packet:
    """``FeedbackCell(circuit_id, acked_seq)`` in ``Packet(cell.size, cell,
    src, dst, now)``, built without ``type.__call__`` or an ``__init__``;
    *acked_seq* is checked as ``FeedbackCell`` checks it."""
    if acked_seq < 0:
        raise ValueError("acked_seq must be non-negative, got %r" % acked_seq)
    cell = _new(FeedbackCell)
    cell.circuit_id = circuit_id
    cell.kind = _FEEDBACK
    cell.size = FEEDBACK_SIZE
    cell.hop_seq = -1
    cell.acked_seq = acked_seq
    packet = _new(Packet)
    packet.size = FEEDBACK_SIZE
    packet.payload = cell
    packet.src = src
    packet.dst = dst
    packet.created_at = now
    packet.on_tx_start = None
    packet.on_tx_start_arg = None
    return packet


@dataclass
class CircuitState:
    """One circuit's state at one host."""

    circuit_id: int
    prev_hop: Optional[str] = None  # toward the data source (feedback target)
    next_hop: Optional[str] = None  # toward the data sink
    sender: Optional[HopSender] = None
    sink: Optional[Any] = None  # application object with .on_cell(cell)
    #: Bound at registration: the egress interface toward ``next_hop``,
    #: and ``feedback(acked_seq)`` over the one toward ``prev_hop``.
    egress_next: Optional[Any] = None
    feedback: Optional[Callable[[int], None]] = None
    #: Next in-order upstream sequence number this host will accept.
    next_inbound_seq: int = 0
    #: Retransmitted copies of already-accepted cells (re-acked, dropped).
    duplicate_cells: int = 0
    #: Out-of-order arrivals dropped while awaiting a retransmission.
    gap_drops: int = 0

    @property
    def is_sink(self) -> bool:
        return self.next_hop is None


class TorHost:
    """Protocol handler multiplexing circuits on one node."""

    #: The node's deliveries call ``handle_packet(packet)`` straight.
    handles_delivery = True

    def __init__(self, sim, node: Node) -> None:
        self.sim = sim
        self.node = node
        self.circuits: Dict[int, CircuitState] = {}
        #: Circuits torn down at this host; cells still in flight when a
        #: circuit departs are dropped silently (and counted) instead of
        #: raising, so churn departures never crash on straggler cells.
        self.retired: set = set()
        self.late_cells = 0
        self.feedback_sent = 0
        self.cells_forwarded = 0
        self.cells_delivered = 0
        #: Circuits torn down because a hop exhausted its retransmission
        #: budget (the sender's ``on_broken`` hook fired here).
        self.circuits_broken = 0
        #: Optional observer invoked as ``callback(circuit_id, error)``
        #: after a broken circuit's local teardown (scenario engines use
        #: this for failure-rate accounting).
        self.on_circuit_broken: Optional[Callable[[int, Exception], None]] = None
        node.set_handler(self)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    @classmethod
    def install(cls, sim, node: Node) -> "TorHost":
        """Return the node's TorHost, creating and installing one if needed."""
        handler = getattr(node, "_handler", None)
        if isinstance(handler, cls):
            return handler
        return cls(sim, node)

    # ------------------------------------------------------------------
    # Circuit state registration
    # ------------------------------------------------------------------

    def register_source(
        self,
        circuit_id: int,
        next_hop: str,
        config: TransportConfig,
        controller: WindowController,
    ) -> HopSender:
        """Register this host as circuit *circuit_id*'s data source."""
        state = self._new_state(circuit_id, None, next_hop)
        state.sender = self._make_sender(state, config, controller)
        return state.sender

    def register_relay(
        self,
        circuit_id: int,
        prev_hop: str,
        next_hop: str,
        config: TransportConfig,
        controller: WindowController,
    ) -> HopSender:
        """Register this host as a forwarding relay on the circuit."""
        state = self._new_state(circuit_id, prev_hop, next_hop)
        state.sender = self._make_sender(state, config, controller)
        return state.sender

    def register_sink(self, circuit_id: int, prev_hop: str, sink_app: Any) -> None:
        """Register this host as the circuit's data sink."""
        state = self.circuits.get(circuit_id)
        if state is None:
            state = self._new_state(circuit_id, prev_hop, None)
        state.sink = sink_app

    def attach_sink_app(self, circuit_id: int, sink_app: Any) -> None:
        """Attach the application to a sink registered via ``register_sink(..., None)``."""
        state = self._state(circuit_id)
        if not state.is_sink:
            raise ValueError(
                "circuit %d at %s is not a sink" % (circuit_id, self.node.name)
            )
        state.sink = sink_app

    def teardown(self, circuit_id: int) -> None:
        """Forget all local state for *circuit_id* (idempotent).

        The circuit's sender (if any) is closed first so its pending
        retransmission timer leaves the event queue with it.
        """
        state = self.circuits.pop(circuit_id, None)
        if state is not None and state.sender is not None:
            state.sender.close()
        self.retired.add(circuit_id)

    def release(self) -> None:
        """Tear down every circuit left and let go of the node (run over).

        A circuit's state closes over this host (its feedback, transmit
        and broken-hop callbacks), and the node holds this host as its
        handler: without these references reference counting frees a
        finished run.  The counters stay readable through the node.
        """
        for circuit_id in list(self.circuits):
            self.teardown(circuit_id)
        self.node = None
        self.on_circuit_broken = None

    @classmethod
    def release_all(cls, nodes: Iterable[Node]) -> None:
        """:meth:`release` the host installed on each of *nodes*, if any."""
        for node in nodes:
            handler = node._handler
            if isinstance(handler, cls):
                handler.release()

    def _new_state(
        self, circuit_id: int, prev_hop: Optional[str], next_hop: Optional[str]
    ) -> CircuitState:
        if circuit_id in self.circuits:
            raise ValueError(
                "circuit %d already registered at %s" % (circuit_id, self.node.name)
            )
        state = CircuitState(circuit_id, prev_hop, next_hop)
        node = self.node
        if next_hop is not None:
            state.egress_next = node.interface_to(next_hop)
        if prev_hop is not None:
            egress_prev = node.interface_to(prev_hop)
            node_name = node.name
            sim = self.sim

            def feedback(acked_seq: int) -> None:
                self.feedback_sent += 1
                egress_prev.send(
                    _feedback_packet(circuit_id, acked_seq, node_name, prev_hop, sim.now)
                )

            state.feedback = feedback
        self.circuits[circuit_id] = state
        # A re-registered id is live again (ids may be recycled by
        # callers); stop treating its cells as stragglers.
        self.retired.discard(circuit_id)
        return state

    def _state(self, circuit_id: int) -> CircuitState:
        try:
            return self.circuits[circuit_id]
        except KeyError:
            raise KeyError(
                "no state for circuit %d at %s" % (circuit_id, self.node.name)
            ) from None

    def _make_sender(
        self,
        state: CircuitState,
        config: TransportConfig,
        controller: WindowController,
    ) -> HopSender:
        label = "c%d:%s->%s" % (state.circuit_id, self.node.name, state.next_hop)
        node_name = self.node.name
        next_hop = state.next_hop
        egress_next = state.egress_next
        sim = self.sim
        # A relay acknowledges the upstream copy the moment it forwards
        # the cell toward its successor — i.e. when the cell's
        # serialization onto the egress wire begins, *after* any time
        # spent in the egress queue.  The predecessor's RTT therefore
        # measures this relay's real backlog, which is the signal
        # CircuitStart's Vegas detector relies on.
        feedback_hook = state.feedback

        def transmit(cell: Cell, token: Any) -> None:
            self.cells_forwarded += 1
            if token is None or feedback_hook is None:
                egress_next.send(_data_packet(cell, node_name, next_hop, sim.now, None, None))
            else:
                # One closure per *circuit* (above), one slot per cell:
                # the upstream sequence number rides in the packet's
                # on_tx_start_arg slot instead of a fresh lambda plus
                # metadata dict entry per cell.
                egress_next.send(
                    _data_packet(cell, node_name, next_hop, sim.now, feedback_hook, token)
                )

        sender = HopSender(self.sim, config, controller, transmit, label=label)
        circuit_id = state.circuit_id

        def on_broken(error: Exception) -> None:
            self._on_hop_broken(circuit_id, error)

        # A hop that exhausts its retransmission budget becomes a
        # circuit-level failure (teardown + counter) instead of an
        # exception unwinding the whole Simulator.run(): one black-holed
        # hop must not crash a netscale/churn-study sweep.
        sender.on_broken = on_broken
        return sender

    def fail_all_circuits(self, error: Exception) -> int:
        """Tear down every live circuit through this host (relay failure).

        The fault plane calls this when the underlying relay dies: each
        circuit is cascaded through the same path as a broken hop —
        local teardown, DESTROY toward both ends, ``on_circuit_broken``
        notification — so neighbors and the scenario engine account for
        the failure identically.  Sending DESTROY from a dead relay is
        a deliberate modeling shortcut for instantaneous failure
        detection; without it every neighbor would discover the death
        one RTO cascade at a time.  Returns the number of circuits
        failed.
        """
        failed = 0
        for circuit_id in list(self.circuits):
            if circuit_id in self.circuits:  # a cascade may retire peers
                self._on_hop_broken(circuit_id, error)
                failed += 1
        return failed

    def _on_hop_broken(self, circuit_id: int, error: Exception) -> None:
        """Handle a hop sender that gave up: tear the circuit down.

        The sender has already closed itself (releasing its window
        accounting); this host drops the rest of its local state and
        propagates DESTROY toward both circuit ends so every other host
        retires the circuit too.
        """
        state = self.circuits.get(circuit_id)
        prev_hop = state.prev_hop if state is not None else None
        next_hop = state.next_hop if state is not None else None
        self.teardown(circuit_id)
        self.circuits_broken += 1
        for neighbor in (prev_hop, next_hop):
            if neighbor is not None:
                self._send_destroy(circuit_id, neighbor)
        if self.on_circuit_broken is not None:
            self.on_circuit_broken(circuit_id, error)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet, node: Any = _OFF_A_LINK) -> None:
        """Handle *packet*; with the packet alone, as the node's delivery
        (module docstring)."""
        if node is _OFF_A_LINK:
            node = self.node
            if not node.up:
                node.packets_dropped_down += 1
                return
            node._packets_received += 1
            dst = packet.dst
            if dst != node.name and dst:
                node.interface_to(dst).send(packet)
                return
        cell = packet.payload
        if not isinstance(cell, Cell):
            raise TypeError(
                "%s received non-cell payload %r" % (self.node.name, packet.payload)
            )
        kind = cell.kind
        circuit_id = cell.circuit_id
        state = self.circuits.get(circuit_id)
        if state is None and (kind is _DATA or kind is _FEEDBACK):
            # A straggler of a departed circuit is counted, not raised.
            if circuit_id not in self.retired:
                self._state(circuit_id)  # raises, naming the host
            self.late_cells += 1
        elif kind is _FEEDBACK:
            sender = state.sender
            if sender is None:
                raise RuntimeError(
                    "feedback for circuit %d reached non-sender %s"
                    % (circuit_id, self.node.name)
                )
            sender.on_feedback(cell.acked_seq)
        elif kind is _DATA:
            # In-order acceptance (go-back-N receiver).  On the default
            # lossless substrate every arrival matches; with loss it
            # dedups retransmitted copies (re-acknowledging them so the
            # upstream sender makes progress) and drops out-of-order
            # arrivals that a retransmission will replace.
            hop_seq = cell.hop_seq
            expected = state.next_inbound_seq
            if hop_seq == expected:
                state.next_inbound_seq = expected + 1
                if state.sink is not None:
                    # Sink role: deliver to the application, acknowledge
                    # at once (consumption is the last "forwarding" step).
                    self.cells_delivered += 1
                    state.sink.on_cell(cell)
                    state.feedback(hop_seq)
                elif state.sender is None:
                    raise RuntimeError(
                        "data cell on circuit %d reached %s, which is neither "
                        "relay nor sink" % (circuit_id, self.node.name)
                    )
                else:
                    # Relay role: the upstream sequence number travels as
                    # the token and is acknowledged when our own window
                    # releases the cell.
                    state.sender.enqueue(cell, hop_seq)
            elif hop_seq > expected:
                state.gap_drops += 1
            else:
                state.duplicate_cells += 1
                if state.feedback is not None:
                    state.feedback(hop_seq)
        elif kind is _DESTROY and state is not None:
            # Propagate away from whoever sent us the DESTROY: a
            # teardown started mid-circuit (e.g. a broken hop) travels
            # toward both ends; one started at an end sweeps to the other.
            neighbors = [
                hop for hop in (state.prev_hop, state.next_hop)
                if hop is not None and hop != packet.src
            ]
            self.teardown(circuit_id)
            for neighbor in neighbors:
                self._send_destroy(circuit_id, neighbor)
        elif kind is not _DESTROY:  # pragma: no cover - exhaustive over CellKind
            raise ValueError("unhandled cell kind %r" % kind)

    def _send_destroy(self, circuit_id: int, dst: str) -> None:
        cell = DestroyCell(circuit_id)
        self.node.send(Packet(cell.size, cell, self.node.name, dst, self.sim.now))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TorHost %s circuits=%d>" % (self.node.name, len(self.circuits))


@contextmanager
def released(sim: Simulator, topology: Topology) -> Iterator[None]:
    """Free a run's object graph when the block exits.

    The simulator, network, hosts and circuits of a run reference each
    other.  Once the block has read its outcome (or raised), each layer
    drops its own back-references, hosts first, so reference counting
    frees the run instead of the cyclic collector.  Read the senders'
    and controllers' state inside the block: releasing tears down every
    circuit still open.
    """
    try:
        yield
    finally:
        TorHost.release_all(topology.nodes.values())
        topology.release()
        sim.release()
