"""Replay enumerated schedules against the real engine.

The model (:mod:`repro.check.model`) is only worth trusting if it
*is* the engine, modulo time.  This module closes that loop: it builds
a real :class:`~repro.sim.simulator.Simulator` circuit — real
:class:`~repro.tor.hosts.TorHost` per node, real
:class:`~repro.transport.hop.HopSender` per hop, real controllers —
and executes a :class:`~repro.check.schedule.Schedule` against it step
by step, then compares every observable field (window accounting,
sequence state, receiver positions, counters, channel contents,
delivery order) against the model run of the same schedule.

Determinization
---------------
The engine is event-driven; to hand the schedule full control the
harness removes every source of spontaneous behaviour:

* **No links.**  Harness nodes are their own egress (``interface_to``
  returns the node): ``send`` captures outbound packets into per-hop
  FIFO channels (firing the one-shot ``on_tx_start`` feedback hook at
  capture, exactly where the link layer fires it — at serialization
  start).  A ``cell``/``feedback`` step pops the channel head and hands
  it to the destination host; a ``lose_*`` step pops and drops it.
* **No spontaneous timers.**  The transport config pushes the RTO
  clamp out to ~11 days of simulated time while each step advances the
  clock by one millisecond, so armed retransmission timers exist (the
  model's enabledness mirrors them) but never fire on their own; an
  ``rto`` step cancels the pending timer and invokes the timeout
  handler directly.
* **Count-driven windows only.**  ``"fixed"`` maps to
  :class:`~repro.core.baselines.FixedWindowController`; ``"double"``
  maps to :class:`~repro.core.circuitstart.CircuitStartController`
  with an astronomically large γ, so its growth is pure discrete-round
  doubling — the only part the time-free model can mirror exactly.
* **Atomic teardown.**  The harness rewires each sender's
  ``on_broken`` hook to tear down every host in the same step
  (mirroring the model's atomic ``close``), since DESTROY propagation
  through channels would introduce schedule choices the model does not
  have.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, Tuple

from ..core.baselines import FixedWindowController
from ..core.circuitstart import CircuitStartController
from ..net.node import Node
from ..net.packet import Packet
from ..serialize import Serializable
from ..sim.simulator import Simulator
from ..tor.cells import CellKind, DataCell
from ..tor.hosts import TorHost
from ..transport.config import CELL_PAYLOAD, TransportConfig
from ..transport.controller import WindowController
from .model import CheckConfig, ModelError, ModelState
from .schedule import Schedule

__all__ = ["ReplayError", "ReplayMismatch", "ReplayReport", "replay_schedule"]

#: Simulated seconds each step advances the clock (so RTT samples are
#: positive and ordered, yet ~11 days below the forced-RTO clamp).
STEP_DT = 0.001

#: RTO clamp that no replay can reach by advancing STEP_DT per step.
_NEVER_RTO = 1.0e6


class ReplayError(ModelError):
    """The engine could not execute a schedule step (harness bug or
    model/engine enabledness divergence — both are findings)."""


@dataclass(frozen=True)
class ReplayMismatch(Serializable):
    """One observable on which model and engine disagree."""

    field: str
    hop: int  # -1 for circuit-global observables
    model: str
    engine: str


@dataclass
class ReplayReport(Serializable):
    """Outcome of replaying one schedule against the engine."""

    steps: int
    delivered_model: int
    delivered_engine: int
    mismatches: List[ReplayMismatch] = field(default_factory=list)
    note: str = ""

    @property
    def agreed(self) -> bool:
        return not self.mismatches


def _engine_config(config: CheckConfig) -> TransportConfig:
    return TransportConfig(
        initial_cwnd_cells=config.cwnd,
        min_cwnd_cells=1,
        max_cwnd_cells=max(config.max_cwnd, config.cwnd),
        # Disable the Vegas exit detector: growth must stay count-driven.
        gamma=1.0e9,
        sample_gamma_factor=1.0,
        reliable=config.reliable,
        rto_min=_NEVER_RTO,
        rto_max=1.0e9,
        rto_initial=_NEVER_RTO,
        max_retransmission_rounds=config.max_retransmission_rounds,
    )


def _make_controller(config: CheckConfig, engine_config: TransportConfig) -> WindowController:
    if config.window_mode == "fixed":
        return FixedWindowController(engine_config, window_cells=config.cwnd)
    return CircuitStartController(engine_config)


class _RecordingSink:
    """Sink application recording the delivery order by cell index."""

    def __init__(self) -> None:
        self.delivered: List[int] = []

    def on_cell(self, cell: DataCell) -> None:
        self.delivered.append(cell.offset // CELL_PAYLOAD)


class _HarnessNode(Node):
    """A node whose egress is a capture callback instead of links."""

    def __init__(self, sim: Simulator, name: str, capture) -> None:
        super().__init__(sim, name)
        self._capture = capture

    def interface_to(self, dst_name: str) -> "_HarnessNode":
        return self  # the egress hosts bind per circuit is this node

    def send(self, packet: Packet) -> None:
        packet.src = packet.src or self.name
        self._capture(packet)


class ReplayHarness:
    """One real-engine circuit under full schedule control."""

    CIRCUIT_ID = 1

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.sim = Simulator()
        hops = config.hops
        self.names = ["n%d" % i for i in range(hops + 1)]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.nodes = [
            _HarnessNode(self.sim, name, self._capture) for name in self.names
        ]
        self.hosts = [TorHost.install(self.sim, node) for node in self.nodes]
        self.fwd: List[Deque[Packet]] = [deque() for _ in range(hops)]
        self.rev: List[Deque[Packet]] = [deque() for _ in range(hops)]
        self.sink = _RecordingSink()
        self.closed = False
        self.broken = False
        self._receiver_snapshot: Optional[List[Tuple[int, int, int]]] = None

        engine_config = _engine_config(config)
        cid = self.CIRCUIT_ID
        self.controllers: List[WindowController] = []
        self.senders = []
        controller = _make_controller(config, engine_config)
        self.controllers.append(controller)
        self.senders.append(self.hosts[0].register_source(
            cid, self.names[1], engine_config, controller
        ))
        for i in range(1, hops):
            controller = _make_controller(config, engine_config)
            self.controllers.append(controller)
            self.senders.append(self.hosts[i].register_relay(
                cid, self.names[i - 1], self.names[i + 1],
                engine_config, controller,
            ))
        self.hosts[hops].register_sink(cid, self.names[hops - 1], self.sink)
        # Atomic teardown on break, mirroring the model (DESTROY
        # propagation would add schedule choices the model lacks).
        for sender in self.senders:
            sender.on_broken = self._on_broken
        # Inject the payload; the source window transmits its first
        # burst synchronously into the capture channels.
        for index in range(config.cells):
            cell = DataCell(
                cid, 1, index * CELL_PAYLOAD, CELL_PAYLOAD,
                is_last=(index == config.cells - 1),
            )
            self.senders[0].enqueue(cell)

    # ------------------------------------------------------------------
    # Packet capture (the "links")
    # ------------------------------------------------------------------

    def _capture(self, packet: Packet) -> None:
        hook = packet.on_tx_start
        if hook is not None:
            # One-shot, fired at serialization start — byte-for-byte
            # what repro.net.link does.  Firing it may recursively
            # capture the resulting feedback packet; that is fine (and
            # matches the model's per-cell ordering).
            packet.on_tx_start = None
            hook(packet.on_tx_start_arg)
        cell = packet.payload
        dst = self._index[packet.dst]
        if cell.kind is CellKind.DATA:
            self.fwd[dst - 1].append(packet)
        elif cell.kind is CellKind.FEEDBACK:
            self.rev[dst].append(packet)
        else:
            raise ReplayError(
                "unexpected %s cell on the harness wire" % cell.kind.value
            )

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------

    def apply(self, kind: str, hop: int) -> None:
        self.sim.run_until(self.sim.now + STEP_DT)
        if kind == "cell":
            packet = self._pop(self.fwd, hop, "data")
            self.hosts[hop + 1].handle_packet(packet, self.nodes[hop + 1])
        elif kind == "feedback":
            packet = self._pop(self.rev, hop, "feedback")
            self.hosts[hop].handle_packet(packet, self.nodes[hop])
        elif kind == "lose_cell":
            self._pop(self.fwd, hop, "data")
        elif kind == "lose_feedback":
            self._pop(self.rev, hop, "feedback")
        elif kind == "rto":
            sender = self.senders[hop]
            timer = sender._retx_timer
            if timer is None:
                raise ReplayError(
                    "rto step on hop %d but no timer armed (model/engine "
                    "enabledness divergence)" % hop
                )
            timer.cancel()
            sender._on_timeout()
        elif kind == "close":
            self._close_all()
            self.closed = True
        else:
            raise ReplayError("unknown step kind %r" % (kind,))

    def _pop(self, channels: List[Deque[Packet]], hop: int, what: str) -> Packet:
        try:
            return channels[hop].popleft()
        except IndexError:
            raise ReplayError(
                "%s step on hop %d but the channel is empty (model/engine "
                "enabledness divergence)" % (what, hop)
            ) from None

    def _on_broken(self, error: Exception) -> None:
        self.broken = True
        self._close_all()

    def _close_all(self) -> None:
        if self._receiver_snapshot is None:
            self._receiver_snapshot = [
                self._receiver_view(i) for i in range(self.config.hops)
            ]
        for host in self.hosts:
            host.teardown(self.CIRCUIT_ID)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def _receiver_view(self, i: int) -> Tuple[int, int, int]:
        """(next_inbound, duplicates, gap drops) of hop *i*'s receiver."""
        if self._receiver_snapshot is not None:
            return self._receiver_snapshot[i]
        state = self.hosts[i + 1].circuits[self.CIRCUIT_ID]
        return (state.next_inbound_seq, state.duplicate_cells, state.gap_drops)

    def late_cells(self) -> int:
        return sum(host.late_cells for host in self.hosts)


def _compare(model: ModelState, harness: ReplayHarness,
             report: ReplayReport) -> None:
    def check(name: str, hop: int, model_value: Any, engine_value: Any) -> None:
        if model_value != engine_value:
            report.mismatches.append(ReplayMismatch(
                field=name, hop=hop,
                model=repr(model_value), engine=repr(engine_value),
            ))

    for i, hop in enumerate(model.hops):
        sender = harness.senders[i]
        controller = harness.controllers[i]
        check("buffered", i, len(hop.buffer), sender.buffered_cells)
        check("inflight", i, sorted(hop.inflight), sorted(sender._send_times))
        check("next_seq", i, hop.next_seq, sender._next_seq)
        check("outstanding", i, hop.outstanding, len(sender._send_times))
        check("cwnd", i, hop.cwnd, controller.cwnd_cells)
        check("feedback_received", i, hop.feedback_received, sender.feedback_received)
        check("duplicate_feedback", i, hop.dup_feedback, sender.duplicate_feedback)
        check("retransmissions", i, hop.retransmissions, sender.retransmissions)
        check("timeouts", i, hop.timeouts, sender.timeouts)
        check("timeout_streak", i, hop.streak, sender._timeout_streak)
        engine_recv = harness._receiver_view(i)
        recv = model.receivers[i]
        check("recv_next_inbound", i, recv.next_inbound, engine_recv[0])
        check("recv_duplicates", i, recv.dup_cells, engine_recv[1])
        check("recv_gap_drops", i, recv.gap_drops, engine_recv[2])
        check("fwd_channel", i,
              [seq for __, seq in model.fwd[i]],
              [p.payload.hop_seq for p in harness.fwd[i]])
        check("rev_channel", i,
              list(model.rev[i]),
              [p.payload.acked_seq for p in harness.rev[i]])
    check("closed", -1, model.closed, harness.closed)
    check("broken", -1, model.broken, harness.broken)
    check("late_cells", -1, model.late_cells, harness.late_cells())
    check("delivery_order", -1,
          list(range(model.delivered)), harness.sink.delivered)


def replay_schedule(schedule: Schedule, _model_bug: str = "") -> ReplayReport:
    """Execute *schedule* through the model and the real engine in
    lockstep; report every observable on which they disagree.

    ``_model_bug`` (tests only) injects a model fault — see
    ``ModelState.injected_bug`` — so the comparison's teeth can be
    verified: a deliberately wrong model must produce mismatches.
    """
    config = schedule.config
    model = ModelState.initial(config)
    model.injected_bug = _model_bug
    harness = ReplayHarness(config)
    report = ReplayReport(
        steps=len(schedule.steps),
        delivered_model=0,
        delivered_engine=0,
        note=schedule.note,
    )
    for step in schedule.steps:
        model.apply(step.action)
        harness.apply(step.kind, step.hop)
    report.delivered_model = model.delivered
    report.delivered_engine = len(harness.sink.delivered)
    _compare(model, harness, report)
    return report
