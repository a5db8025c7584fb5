"""`TorHost` against the per-cell path it had before it was flattened.

:class:`ReferenceTorHost` is that path kept as a model: ``handle_packet``
dispatches to a ``_handle_*`` method per cell kind, every emission goes
through ``_send_cell`` -> ``_make_packet`` -> ``node.send`` and therefore
through the route table, per cell.  It shares nothing with
``repro.tor.hosts`` — not even :class:`CircuitState` — so the production
class can bind, inline and reorder whatever it likes, as long as nothing
observable moves.

"Observable" is everything this module compares after driving both
through the same Hypothesis-generated multi-circuit schedule: the log of
every cell handed to every host, with the ``(time, seq)`` slot of the
delivery event, and every host, circuit, sender, controller, node,
interface and queue counter.  The schedules cover a star and a chain
(where other hosts' nodes carry transit traffic), a relay shared by
every circuit, a :class:`~repro.net.faults.ScriptedLossModel` installed
on an interface after construction (its drop verdict, counted by the
model, is how a packet is lost), a relay kill and restart, a mid-run
teardown and a circuit id registered again after it was retired.  Link
rates and delays are powers of two, so same-instant ties are the rule,
not the exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factory import make_controller
from repro.net.faults import ScriptedLossModel, install_fault_model
from repro.net.packet import Packet
from repro.net.topology import LinkSpec, build_chain, build_star
from repro.sim.simulator import Simulator
from repro.tor.cells import Cell, CellKind, DataCell, DestroyCell, FeedbackCell
from repro.tor.hosts import TorHost
from repro.transport.config import CELL_PAYLOAD, CELL_SIZE, TransportConfig
from repro.transport.hop import HopSender
from repro.units import Rate

# A data cell occupies a FAST wire for exactly one SLOT and a feedback
# cell for 53/512 of one; every delay is a whole number of slots.  All
# of it is exact in binary, so events really do collide.
SLOT = 2.0 ** -10
FAST = Rate(CELL_SIZE / SLOT)
SLOW = Rate(CELL_SIZE / (4 * SLOT))
HORIZON = 16.0

LOSSLESS = TransportConfig()
# Short timers and a small budget: a black-holed hop retransmits, backs
# off and breaks (DESTROY toward both ends) well inside HORIZON.
RELIABLE = TransportConfig(
    reliable=True, rto_min=0.0625, rto_initial=0.25, max_retransmission_rounds=3
)

NAMES = ["n0", "n1", "n2", "n3", "n4", "n5"]


# ----------------------------------------------------------------------
# The reference: the per-cell path as it was
# ----------------------------------------------------------------------


@dataclass
class _RefState:
    circuit_id: int
    prev_hop: Optional[str] = None
    next_hop: Optional[str] = None
    sender: Optional[HopSender] = None
    sink: Optional[Any] = None
    next_inbound_seq: int = 0
    duplicate_cells: int = 0
    gap_drops: int = 0


class ReferenceTorHost:
    """``TorHost`` before the change, minus docstrings."""

    def __init__(self, sim, node) -> None:
        self.sim = sim
        self.node = node
        self.circuits: Dict[int, _RefState] = {}
        self.retired: set = set()
        self.late_cells = 0
        self.feedback_sent = 0
        self.cells_forwarded = 0
        self.cells_delivered = 0
        self.circuits_broken = 0
        self.on_circuit_broken = None
        node.set_handler(self)

    def register_source(self, circuit_id, next_hop, config, controller):
        state = self._new_state(circuit_id)
        state.next_hop = next_hop
        state.sender = self._make_sender(state, config, controller)
        return state.sender

    def register_relay(self, circuit_id, prev_hop, next_hop, config, controller):
        state = self._new_state(circuit_id)
        state.prev_hop = prev_hop
        state.next_hop = next_hop
        state.sender = self._make_sender(state, config, controller)
        return state.sender

    def register_sink(self, circuit_id, prev_hop, sink_app):
        state = self.circuits.get(circuit_id)
        if state is None:
            state = self._new_state(circuit_id)
            state.prev_hop = prev_hop
        state.sink = sink_app

    def teardown(self, circuit_id):
        state = self.circuits.pop(circuit_id, None)
        if state is not None and state.sender is not None:
            state.sender.close()
        self.retired.add(circuit_id)

    def _new_state(self, circuit_id):
        if circuit_id in self.circuits:
            raise ValueError(
                "circuit %d already registered at %s" % (circuit_id, self.node.name)
            )
        state = _RefState(circuit_id)
        self.circuits[circuit_id] = state
        self.retired.discard(circuit_id)
        return state

    def _state(self, circuit_id):
        try:
            return self.circuits[circuit_id]
        except KeyError:
            raise KeyError(
                "no state for circuit %d at %s" % (circuit_id, self.node.name)
            ) from None

    def _make_sender(self, state, config, controller):
        label = "c%d:%s->%s" % (state.circuit_id, self.node.name, state.next_hop)
        node = self.node
        node_name = node.name
        next_hop = state.next_hop
        sim = self.sim

        def feedback_hook(acked_seq):
            self._send_feedback(state, acked_seq)

        def transmit(cell, token):
            self.cells_forwarded += 1
            packet = Packet(
                cell.size,
                payload=cell,
                src=node_name,
                dst=next_hop,
                created_at=sim.now,
            )
            if token is not None and state.prev_hop is not None:
                packet.on_tx_start = feedback_hook
                packet.on_tx_start_arg = token
            node.send(packet)

        sender = HopSender(self.sim, config, controller, transmit, label=label)
        circuit_id = state.circuit_id

        def on_broken(error):
            self._on_hop_broken(circuit_id, error)

        sender.on_broken = on_broken
        return sender

    def fail_all_circuits(self, error):
        failed = 0
        for circuit_id in list(self.circuits):
            if circuit_id in self.circuits:
                self._on_hop_broken(circuit_id, error)
                failed += 1
        return failed

    def _on_hop_broken(self, circuit_id, error):
        state = self.circuits.get(circuit_id)
        prev_hop = state.prev_hop if state is not None else None
        next_hop = state.next_hop if state is not None else None
        self.teardown(circuit_id)
        self.circuits_broken += 1
        for neighbor in (prev_hop, next_hop):
            if neighbor is not None:
                self._send_cell(DestroyCell(circuit_id), neighbor)
        if self.on_circuit_broken is not None:
            self.on_circuit_broken(circuit_id, error)

    def handle_packet(self, packet, node):
        cell = packet.payload
        if not isinstance(cell, Cell):
            raise TypeError(
                "%s received non-cell payload %r" % (self.node.name, packet.payload)
            )
        if cell.kind is CellKind.FEEDBACK:
            self._handle_feedback(cell)
        elif cell.kind is CellKind.DATA:
            self._handle_data(cell)
        elif cell.kind is CellKind.DESTROY:
            self._handle_destroy(cell, packet)
        else:
            raise ValueError("unhandled cell kind %r" % cell.kind)

    def _handle_feedback(self, cell):
        if cell.circuit_id in self.retired:
            self.late_cells += 1
            return
        state = self._state(cell.circuit_id)
        if state.sender is None:
            raise RuntimeError(
                "feedback for circuit %d reached non-sender %s"
                % (cell.circuit_id, self.node.name)
            )
        state.sender.on_feedback(cell.acked_seq)

    def _handle_data(self, cell):
        if cell.circuit_id in self.retired:
            self.late_cells += 1
            return
        state = self._state(cell.circuit_id)
        if cell.hop_seq < state.next_inbound_seq:
            state.duplicate_cells += 1
            if state.prev_hop is not None:
                self._send_feedback(state, cell.hop_seq)
            return
        if cell.hop_seq > state.next_inbound_seq:
            state.gap_drops += 1
            return
        state.next_inbound_seq += 1
        if state.sink is not None:
            self.cells_delivered += 1
            arrival_seq = cell.hop_seq
            state.sink.on_cell(cell)
            self._send_feedback(state, arrival_seq)
            return
        if state.sender is None:
            raise RuntimeError(
                "data cell on circuit %d reached %s, which is neither relay "
                "nor sink" % (cell.circuit_id, self.node.name)
            )
        state.sender.enqueue(cell, token=cell.hop_seq)

    def _handle_destroy(self, cell, packet):
        state = self.circuits.get(cell.circuit_id)
        if state is None:
            return
        neighbors = [
            hop for hop in (state.prev_hop, state.next_hop)
            if hop is not None and hop != packet.src
        ]
        self.teardown(cell.circuit_id)
        for neighbor in neighbors:
            self._send_cell(DestroyCell(cell.circuit_id), neighbor)

    def _send_feedback(self, state, acked_seq):
        assert state.prev_hop is not None
        feedback = FeedbackCell(state.circuit_id, acked_seq)
        self.feedback_sent += 1
        self._send_cell(feedback, state.prev_hop)

    def _make_packet(self, cell, dst):
        return Packet(
            cell.size,
            payload=cell,
            src=self.node.name,
            dst=dst,
            created_at=self.sim.now,
        )

    def _send_cell(self, cell, dst):
        self.node.send(self._make_packet(cell, dst))


class AckOnArrivalHost(ReferenceTorHost):
    """A planted bug: a relay acknowledges when the cell *arrives*, not
    when its own window forwards it.  The comparison must notice."""

    def _handle_data(self, cell):
        state = self.circuits.get(cell.circuit_id)
        if (
            state is not None
            and state.sink is None
            and state.sender is not None
            and cell.hop_seq == state.next_inbound_seq
        ):
            state.next_inbound_seq += 1
            self._send_feedback(state, cell.hop_seq)
            state.sender.enqueue(cell)
            return
        super()._handle_data(cell)


# ----------------------------------------------------------------------
# One world per host class
# ----------------------------------------------------------------------


class _Sink:
    def __init__(self, sim, log, circuit_id):
        self.sim, self.log, self.circuit_id = sim, log, circuit_id

    def on_cell(self, cell):
        self.log.append(("sink", self.sim.now, self.circuit_id, cell.offset))


class World:
    """One simulator, one network, one host class, and a log."""

    def __init__(self, host_cls, shape, specs, reliable, loss):
        self.sim = sim = Simulator()
        self.log = []
        self.config = RELIABLE if reliable else LOSSLESS
        if shape == "star":
            self.topology = build_star(sim, "hub", dict(zip(NAMES, specs)))
        else:
            self.topology = build_chain(sim, NAMES, specs[: len(NAMES) - 1])
        self.hosts = {}
        for name in NAMES:
            host = host_cls(sim, self.topology.node(name))
            host.on_circuit_broken = self._broken
            self._tap(host)
            self.hosts[name] = host
        if loss is not None:
            name, iface_index, drops = loss
            node = self.topology.node(name)
            iface = node.interfaces[iface_index % len(node.interfaces)]
            install_fault_model(iface, ScriptedLossModel(drops))
        self.paths = {}
        self.senders = []      # every sender ever made, closed ones included
        self.controllers = []

    def _broken(self, circuit_id, error):
        self.log.append(
            ("broken", self.sim.now, circuit_id, type(error).__name__, str(error))
        )

    def _tap(self, host):
        sim, log, name = self.sim, self.log, host.node.name
        handle = host.handle_packet

        def tapped(packet, node):
            cell = packet.payload
            seq = cell.acked_seq if cell.kind is CellKind.FEEDBACK else cell.hop_seq
            log.append(
                (name, sim.now, sim.current_seq, cell.kind.value,
                 cell.circuit_id, seq, packet.src)
            )
            handle(packet, node)

        host.node.set_handler(tapped)

    # -- schedule operations, all executed from inside the run ---------

    def start(self, circuit_id, path, cells):
        hosts = [self.hosts[name] for name in path]
        if any(circuit_id in host.circuits for host in hosts):
            return  # a recycled id whose old incarnation is still live here
        self.paths[circuit_id] = path
        config = self.config
        senders = []
        for i, host in enumerate(hosts[:-1]):
            controller = make_controller("with", config)
            self.controllers.append(controller)
            if i == 0:
                senders.append(
                    host.register_source(circuit_id, path[1], config, controller)
                )
            else:
                senders.append(host.register_relay(
                    circuit_id, path[i - 1], path[i + 1], config, controller
                ))
        hosts[-1].register_sink(
            circuit_id, path[-2], _Sink(self.sim, self.log, circuit_id)
        )
        self.senders.extend(senders)
        for index in range(cells):
            senders[0].enqueue(
                DataCell(circuit_id, 1, index * CELL_PAYLOAD, CELL_PAYLOAD)
            )

    def teardown(self, circuit_id):
        for name in self.paths.get(circuit_id, ()):
            self.hosts[name].teardown(circuit_id)

    def kill(self, name):
        node = self.topology.node(name)
        if node.up:
            node.up = False
            self.hosts[name].fail_all_circuits(RuntimeError("relay %s died" % name))

    def restart(self, name):
        self.topology.node(name).up = True

    # -- everything a caller could look at -----------------------------

    def outcome(self):
        hosts = {
            name: (
                host.late_cells, host.feedback_sent, host.cells_forwarded,
                host.cells_delivered, host.circuits_broken, sorted(host.retired),
                {
                    cid: (state.prev_hop, state.next_hop, state.next_inbound_seq,
                          state.duplicate_cells, state.gap_drops)
                    for cid, state in host.circuits.items()
                },
            )
            for name, host in self.hosts.items()
        }
        senders = [
            (s.label, s.counters(), s._next_seq, s.inflight_cells, s.buffered_cells)
            for s in self.senders
        ]
        controllers = [c.cwnd_cells for c in self.controllers]
        nodes = {
            name: (
                node.packets_received, node.packets_dropped_down,
                [(i.packets_sent, i.bytes_sent, i.max_backlog_packets,
                  i.backlog_packets, i.busy,
                  i.fault_model and i.fault_model.packets_dropped)
                 for i in node.interfaces],
            )
            for name, node in self.topology.nodes.items()
        }
        return {
            "log": self.log, "hosts": hosts, "senders": senders,
            "controllers": controllers, "nodes": nodes,
            "clock": (self.sim.now, self.sim.events_executed),
        }


def play(host_cls, schedule):
    shape, specs, reliable, loss, circuits, ops = schedule
    world = World(host_cls, shape, specs, reliable, loss)
    sim = world.sim
    for circuit_id, (path, cells, at) in enumerate(circuits, start=1):
        sim.schedule_at(at * SLOT, world.start, circuit_id, path, cells)
    for kind, target, at in ops:
        if kind == "kill":
            down_for, name = target
            sim.schedule_at(at * SLOT, world.kill, name)
            sim.schedule_at((at + down_for) * SLOT, world.restart, name)
        elif kind == "teardown":
            sim.schedule_at(at * SLOT, world.teardown, 1 + target % len(circuits))
        else:  # "recycle": the same id and path again, if it is free by now
            circuit_id = 1 + target % len(circuits)
            path, cells, __ = circuits[circuit_id - 1]
            sim.schedule_at(at * SLOT, world.start, circuit_id, path, cells)
    # A recycled id can meet a straggler of its previous incarnation in
    # a role that refuses it (feedback at what is now a sink).  That is
    # a refusal to compare like any other outcome, not to hide.
    try:
        sim.run_until(HORIZON)
        error = None
    except (KeyError, RuntimeError, TypeError, ValueError) as exc:
        error = (type(exc).__name__, str(exc))
    outcome = world.outcome()
    outcome["error"] = error
    return outcome


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------

_spec = st.builds(
    LinkSpec,
    st.sampled_from([FAST, FAST, SLOW]),
    st.sampled_from([SLOT, 2 * SLOT, 8 * SLOT]),
)
# Early, while the first windows are in flight, or late, among the
# retransmission timers.
_when = st.one_of(st.integers(0, 96), st.integers(0, 40).map(lambda n: 64 * n))


@st.composite
def _schedules(draw):
    shape = draw(st.sampled_from(["star", "chain"]))
    specs = draw(st.lists(_spec, min_size=len(NAMES), max_size=len(NAMES)))
    reliable = draw(st.sampled_from([False, True, True]))
    # One relay carries every circuit; the rest of each path is free.
    shared = draw(st.sampled_from(NAMES))
    busy = [shared, "hub" if shape == "star" else shared]
    loss = draw(st.one_of(
        st.none(),
        st.tuples(st.sampled_from(busy + NAMES), st.integers(0, 5),
                  st.frozensets(st.integers(0, 16), max_size=6)),
    ))
    others = [name for name in NAMES if name != shared]
    circuits = []
    for __ in range(draw(st.integers(2, 4))):
        ends = draw(st.permutations(others))[: draw(st.integers(2, 4))]
        path = list(ends)
        path.insert(draw(st.integers(1, len(ends) - 1)), shared)
        circuits.append((path, draw(st.integers(1, 12)), draw(st.integers(0, 8))))
    victim = draw(st.sampled_from([shared, shared, *others]))
    ops = [
        ("kill", (draw(st.integers(1, 64)), victim), draw(_when)),
        ("teardown", draw(st.integers(0, 3)), draw(_when)),
    ]
    ops += draw(st.lists(
        st.one_of(
            st.tuples(st.just("kill"),
                      st.tuples(st.integers(1, 64), st.sampled_from(NAMES)), _when),
            st.tuples(st.just("teardown"), st.integers(0, 3), _when),
            st.tuples(st.just("recycle"), st.integers(0, 3), _when),
        ),
        max_size=3,
    ))
    return shape, specs, reliable, loss, circuits, ops


@settings(max_examples=200, deadline=None)
@given(_schedules())
def test_tor_host_matches_reference(schedule):
    assert play(TorHost, schedule) == play(ReferenceTorHost, schedule)


# ----------------------------------------------------------------------
# Fixed schedules: what the generated ones are meant to reach, reached
# ----------------------------------------------------------------------

_SPECS = [LinkSpec(FAST, SLOT)] * 3 + [LinkSpec(SLOW, 2 * SLOT)] * 3


def _fixed(shape, reliable, loss, ops):
    circuits = [
        (["n0", "n2", "n3", "n5"], 12, 0),
        (["n1", "n3", "n4"], 8, 0),
        (["n5", "n4", "n3", "n0"], 6, 2),
    ]
    return shape, _SPECS, reliable, loss, circuits, ops


def _count(outcome, kind):
    return sum(1 for entry in outcome["log"] if len(entry) == 7 and entry[3] == kind)


def test_fixed_schedules_reach_every_arm_and_match():
    seen = set()
    ops = [("kill", (40, "n4"), 1024), ("teardown", 1, 12), ("recycle", 1, 4096)]
    for shape in ("star", "chain"):
        # n3's first interface loses a few of the packets it sends, or nearly all.
        for reliable, drops in ((False, {1, 4, 5}), (True, {1, 4, 5}), (True, range(1, 60))):
            schedule = _fixed(shape, reliable, ("n3", 0, frozenset(drops)), ops)
            outcome = play(TorHost, schedule)
            assert outcome == play(ReferenceTorHost, schedule)
            assert outcome["error"] is None
            assert _count(outcome, "data") and _count(outcome, "feedback")
            hosts = outcome["hosts"].values()
            found = {
                "destroy": _count(outcome, "destroy"),
                "late": any(host[0] for host in hosts),
                "relay-died": any(e[0] == "broken" and e[3] == "RuntimeError"
                                  for e in outcome["log"]),
                "hop-broken": any(e[0] == "broken" and e[3] == "HopBrokenError"
                                  for e in outcome["log"]),
                "timeout": any(c["timeouts"] for __, c, *___ in outcome["senders"]),
                "duplicate": any(s[3] for host in hosts for s in host[6].values()),
                "gap": any(s[4] for host in hosts for s in host[6].values()),
                "fault-drop": any(i[5] for node in outcome["nodes"].values()
                                  for i in node[2]),
                "recycled-delivery": any(e[0] == "sink" and e[1] > 2.0
                                         for e in outcome["log"]),
            }
            seen.update(name for name, hit in found.items() if hit)
    assert seen == {
        "destroy", "late", "relay-died", "hop-broken", "timeout", "duplicate",
        "gap", "fault-drop", "recycled-delivery",
    }


def test_comparison_notices_a_relay_that_acknowledges_on_arrival():
    schedule = _fixed("star", False, None, [])
    assert play(AckOnArrivalHost, schedule) != play(ReferenceTorHost, schedule)


def test_straggler_refused_by_a_recycled_role_is_the_same_refusal():
    # Circuit 1 runs n0 -> n1 -> n2, is torn down with feedback still in
    # flight toward n1, and its id comes back at once on n2 -> n1 with
    # n1 as the *sink*: the straggler is now feedback at a non-sender.
    specs = [LinkSpec(FAST, 8 * SLOT)] * 6

    def play_recycled(host_cls):
        world = World(host_cls, "chain", specs, False, None)
        sim = world.sim
        sim.schedule_at(0.0, world.start, 1, ["n0", "n1", "n2"], 4)
        sim.schedule_at(20 * SLOT, world.teardown, 1)
        sim.schedule_at(20 * SLOT, world.start, 1, ["n2", "n1"], 1)
        try:
            sim.run_until(HORIZON)
        except RuntimeError as exc:
            return str(exc), world.outcome()
        return None, world.outcome()

    error, outcome = play_recycled(TorHost)
    assert (error, outcome) == play_recycled(ReferenceTorHost)
    assert error == "feedback for circuit 1 reached non-sender n1"
