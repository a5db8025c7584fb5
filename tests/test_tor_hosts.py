"""Unit tests for per-node circuit state and feedback wiring."""

from __future__ import annotations

import pytest

from repro.core.circuitstart import CircuitStartController
from repro.net.packet import Packet
from repro.net.topology import LinkSpec, build_chain
from repro.tor.apps import SinkApp
from repro.tor.cells import Cell, CellKind, DataCell, DestroyCell, FeedbackCell
from repro.tor.hosts import TorHost, _data_packet, _feedback_packet
from repro.transport.config import CELL_SIZE, TransportConfig
from repro.units import mbit_per_second, milliseconds

SPEC = LinkSpec(mbit_per_second(16), milliseconds(5))


def chain_hosts(sim, names=("a", "b", "c")):
    topo = build_chain(sim, list(names), [SPEC] * (len(names) - 1))
    hosts = {name: TorHost.install(sim, topo.node(name)) for name in names}
    return topo, hosts


def wire_circuit(sim, hosts, circuit_id=1, config=None, payload=498 * 4):
    """Register a,b,c as source, relay, sink for one circuit."""
    config = config or TransportConfig()
    names = list(hosts)
    source = hosts[names[0]]
    sink_app = SinkApp(sim, circuit_id, payload)
    sender = source.register_source(
        circuit_id, names[1], config, CircuitStartController(config)
    )
    for i in range(1, len(names) - 1):
        hosts[names[i]].register_relay(
            circuit_id,
            names[i - 1],
            names[i + 1],
            config,
            CircuitStartController(config),
        )
    hosts[names[-1]].register_sink(circuit_id, names[-2], sink_app)
    return sender, sink_app


def test_a_host_takes_its_node_s_deliveries(sim):
    topo, hosts = chain_hosts(sim)
    node = topo.node("b")
    assert node.receive == hosts["b"].handle_packet
    node.set_handler(lambda packet, node: None)
    assert node.receive == node.deliver


def test_install_is_idempotent(sim):
    topo, hosts = chain_hosts(sim)
    again = TorHost.install(sim, topo.node("a"))
    assert again is hosts["a"]


def test_duplicate_registration_rejected(sim):
    __, hosts = chain_hosts(sim)
    config = TransportConfig()
    hosts["a"].register_source(1, "b", config, CircuitStartController(config))
    with pytest.raises(ValueError):
        hosts["a"].register_source(1, "b", config, CircuitStartController(config))


def test_data_flows_source_to_sink(sim):
    __, hosts = chain_hosts(sim)
    sender, sink_app = wire_circuit(sim, hosts)
    for cell_index in range(4):
        sender.enqueue(DataCell(1, 1, cell_index * 498, 498))
    sim.run()
    assert sink_app.done
    assert sink_app.cells_received == 4


def test_relay_emits_feedback_to_predecessor(sim):
    __, hosts = chain_hosts(sim)
    sender, __sink = wire_circuit(sim, hosts)
    sender.enqueue(DataCell(1, 1, 0, 498))
    sim.run()
    # b acknowledged to a; c (sink) acknowledged to b.
    assert hosts["b"].feedback_sent == 1
    assert hosts["c"].feedback_sent == 1
    assert sender.feedback_received == 1


def test_source_window_reopens_on_feedback(sim):
    __, hosts = chain_hosts(sim)
    sender, sink_app = wire_circuit(sim, hosts, payload=498 * 10)
    for cell_index in range(10):
        sender.enqueue(DataCell(1, 1, cell_index * 498, 498))
    assert sender.inflight_cells == 2  # initial window
    sim.run()
    assert sink_app.done  # the rest flowed as feedback arrived


def test_unknown_circuit_raises(sim):
    __, hosts = chain_hosts(sim)
    with pytest.raises(KeyError):
        hosts["b"].handle_packet_for_tests = None
        hosts["b"]._state(99)
    for cell in (DataCell(99, 1, 0, 498), FeedbackCell(99, 0)):
        with pytest.raises(KeyError, match="no state for circuit 99 at b"):
            hosts["b"].handle_packet(Packet(cell.size, cell, src="a", dst="b"), None)


def test_feedback_to_non_sender_raises(sim):
    __, hosts = chain_hosts(sim)
    sink_app = SinkApp(sim, 1, 498)
    hosts["c"].register_sink(1, "b", sink_app)
    cell = FeedbackCell(1, 0)
    with pytest.raises(RuntimeError):
        hosts["c"].handle_packet(Packet(cell.size, cell, src="b", dst="c"), None)


def test_non_cell_payload_rejected(sim):
    __, hosts = chain_hosts(sim)
    with pytest.raises(TypeError):
        hosts["a"].handle_packet(Packet(10, payload="junk", dst="a"), None)


@pytest.mark.parametrize("kind", list(CellKind))
def test_every_cell_kind_reaches_a_handler_arm(sim, kind):
    """No CellKind member can fall through to ``unhandled cell kind``:
    at a relay each one has an effect of its own, on a live circuit and
    on a departed one."""
    __, hosts = chain_hosts(sim)
    __, sink_app = wire_circuit(sim, hosts)
    relay = hosts["b"]
    relay_sender = relay.circuits[1].sender

    def arrive(cell):
        relay.handle_packet(Packet(cell.size, cell, src="a", dst="b"), None)

    data = DataCell(1, 1, 0, 498)
    data.hop_seq = 0
    if kind is CellKind.DATA:
        arrive(data)
        sim.run()
        assert relay.cells_forwarded == 1 and sink_app.cells_received == 1
    elif kind is CellKind.FEEDBACK:
        arrive(data)  # puts the relay's own seq 0 in flight
        arrive(FeedbackCell(1, 0))
        assert relay_sender.feedback_received == 1
    else:
        assert kind is CellKind.DESTROY  # a new member needs an arm here
        arrive(DestroyCell(1))
        assert 1 not in relay.circuits and 1 in relay.retired
    # The same kind for a circuit that has left: counted or ignored.
    relay.teardown(1)
    late = relay.late_cells
    arrive(Cell(1, kind, CELL_SIZE))
    assert relay.late_cells == late + (kind is not CellKind.DESTROY)


def test_teardown_removes_state(sim):
    __, hosts = chain_hosts(sim)
    wire_circuit(sim, hosts)
    hosts["b"].teardown(1)
    assert 1 not in hosts["b"].circuits
    hosts["b"].teardown(1)  # idempotent


def test_destroy_cell_propagates(sim):
    topo, hosts = chain_hosts(sim)
    wire_circuit(sim, hosts)
    destroy = DestroyCell(1)
    topo.node("a").send(Packet(destroy.size, destroy, src="a", dst="b"))
    # Source still has its state (destroy started downstream of it).
    sim.run()
    assert 1 not in hosts["b"].circuits
    assert 1 not in hosts["c"].circuits


def test_attach_sink_app_requires_sink_state(sim):
    __, hosts = chain_hosts(sim)
    config = TransportConfig()
    hosts["a"].register_source(1, "b", config, CircuitStartController(config))
    with pytest.raises(ValueError):
        hosts["a"].attach_sink_app(1, SinkApp(sim, 1, 10))


def test_counters_track_roles(sim):
    __, hosts = chain_hosts(sim)
    sender, __sink = wire_circuit(sim, hosts, payload=498 * 2)
    sender.enqueue(DataCell(1, 1, 0, 498))
    sender.enqueue(DataCell(1, 1, 498, 498))
    sim.run()
    assert hosts["a"].cells_forwarded == 2  # source transmissions
    assert hosts["b"].cells_forwarded == 2  # relay forwards
    assert hosts["c"].cells_delivered == 2  # sink deliveries


def test_circuit_state_role_properties(sim):
    __, hosts = chain_hosts(sim)
    wire_circuit(sim, hosts)
    assert not hosts["a"].circuits[1].is_sink
    assert hosts["c"].circuits[1].is_sink
    assert not hosts["b"].circuits[1].is_sink


def test_a_host_forwards_a_packet_addressed_to_another_node(sim):
    """A Tor node is a router too: a packet it takes off a link that is
    addressed elsewhere goes out again, counted, and its host never
    sees it."""
    topo = build_chain(sim, ["a", "b", "c"], [SPEC] * 2)
    relay = TorHost.install(sim, topo.node("b"))
    arrived = []
    topo.node("c").set_handler(lambda packet, node: arrived.append(packet))
    cell = DestroyCell(7)
    packet = Packet(cell.size, cell, src="a", dst="c")
    topo.node("a").send(packet)
    sim.run()
    assert arrived == [packet]
    assert [topo.node(name).packets_received for name in "abc"] == [0, 1, 1]
    assert topo._interface_between("b", "c").packets_sent == 1
    assert (relay.late_cells, relay.retired, relay.circuits) == (0, set(), {})


def test_a_killed_relay_drops_and_counts_what_reaches_it(sim):
    topo, hosts = chain_hosts(sim)
    __, sink_app = wire_circuit(sim, hosts)
    relay = topo.node("b")
    relay.up = False
    for cell in (DataCell(1, 1, 0, 498), FeedbackCell(1, 0)):
        cell.hop_seq = 0
        topo.node("a").send(Packet(cell.size, cell, src="a", dst="b"))
    sim.run()
    assert (relay.packets_received, relay.packets_dropped_down) == (0, 2)
    assert hosts["b"].circuits[1].next_inbound_seq == 0
    assert hosts["b"].cells_forwarded == hosts["b"].feedback_sent == 0
    assert sink_app.cells_received == 0
    relay.up = True
    cell = DataCell(1, 1, 0, 498)
    cell.hop_seq = 0
    topo.node("a").send(Packet(cell.size, cell, src="a", dst="b"))
    sim.run()
    # Up again: the data cell and the sink's feedback for it.
    assert (relay.packets_received, relay.packets_dropped_down) == (2, 2)
    assert sink_app.cells_received == 1


def _slots(obj):
    names = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    return type(obj), {name: getattr(obj, name) for name in names}


def test_the_wire_builders_fill_every_slot_the_constructors_do():
    cell = DataCell(3, 1, 0, 498)
    built = _data_packet(cell, "a", "b", 1.5, None, None)
    assert _slots(built) == _slots(Packet(cell.size, cell, "a", "b", 1.5))
    hooked = _data_packet(cell, "a", "b", 1.5, print, 7)
    assert (hooked.on_tx_start, hooked.on_tx_start_arg) == (print, 7)
    packet = _feedback_packet(3, 9, "b", "a", 2.5)
    reference = FeedbackCell(3, 9)
    assert _slots(packet.payload) == _slots(reference)
    assert _slots(packet) == _slots(Packet(reference.size, packet.payload, "b", "a", 2.5))


def test_the_feedback_builder_refuses_what_feedback_cell_refuses():
    with pytest.raises(ValueError, match="acked_seq must be non-negative"):
        FeedbackCell(3, -1)
    with pytest.raises(ValueError, match="acked_seq must be non-negative"):
        _feedback_packet(3, -1, "b", "a", 0.0)
