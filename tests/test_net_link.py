"""Unit tests for links and interfaces (repro.net.link)."""

from __future__ import annotations

import pytest

from repro.net.link import Interface, Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.units import mbit_per_second, milliseconds


def wire(sim, rate_mbit=8.0, delay_ms=10.0):
    """A sender node wired to a receiving node that records arrivals."""
    received = []

    class Recorder:
        def handle_packet(self, packet, node):
            received.append((sim.now, packet))

    sender = Node(sim, "tx")
    receiver = Node(sim, "rx", handler=Recorder())
    link = Link(mbit_per_second(rate_mbit), milliseconds(delay_ms), name="tx->rx")
    iface = Interface(sim, sender, link)
    iface.attach_peer(receiver)
    sender.add_interface(iface)
    sender.routes["rx"] = iface
    return sender, iface, received


def test_link_rejects_negative_delay():
    with pytest.raises(ValueError):
        Link(mbit_per_second(8), -0.001)


def test_link_rejects_nan_delay():
    # A NaN delay would put a NaN time on the event heap at the first
    # send: Simulator.push checks nothing, so the link refuses it here.
    with pytest.raises(ValueError, match="nan"):
        Link(mbit_per_second(8), float("nan"))


def test_link_rejects_infinite_delay():
    # Every delivery over it would land at an infinite time: the run
    # would end with the clock at infinity.
    with pytest.raises(ValueError, match="got inf"):
        Link(mbit_per_second(8), float("inf"))


def test_link_timing_helpers():
    link = Link(mbit_per_second(8), milliseconds(10))  # 1e6 B/s
    assert link.transmission_time_for(1000) == pytest.approx(0.001)


def test_single_packet_arrival_time(sim):
    sender, iface, received = wire(sim, rate_mbit=8.0, delay_ms=10.0)
    sender.send(Packet(1000, dst="rx"))
    sim.run()
    assert len(received) == 1
    at, __ = received[0]
    assert at == pytest.approx(0.001 + 0.010)  # tx + propagation
    assert iface.peer.packets_received == 1


def test_serialization_is_sequential(sim):
    """Two packets sent together arrive one transmission time apart."""
    sender, iface, received = wire(sim, rate_mbit=8.0, delay_ms=10.0)
    sender.send(Packet(1000, dst="rx"))
    sender.send(Packet(1000, dst="rx"))
    sim.run()
    assert len(received) == 2
    assert received[1][0] - received[0][0] == pytest.approx(0.001)


def test_busy_flag_during_transmission(sim):
    sender, iface, __ = wire(sim, rate_mbit=8.0, delay_ms=10.0)
    sender.send(Packet(1000, dst="rx"))
    assert iface.busy
    sim.run_until(0.0015)
    assert not iface.busy


def test_backlog_counts_waiting_packets(sim):
    sender, iface, __ = wire(sim)
    for __i in range(3):
        sender.send(Packet(1000, dst="rx"))
    # One packet is in flight; two wait in the backlog.
    assert iface.backlog_packets == iface.max_backlog_packets == 2
    sim.run()
    assert (iface.backlog_packets, iface.max_backlog_packets) == (0, 2)


def test_interface_counters(sim):
    sender, iface, __ = wire(sim)
    for __i in range(3):
        sender.send(Packet(500, dst="rx"))
    sim.run()
    assert iface.packets_sent == 3
    assert iface.bytes_sent == 1500


def test_send_without_peer_raises(sim):
    node = Node(sim, "lonely")
    iface = Interface(sim, node, Link(mbit_per_second(8), 0.01))
    with pytest.raises(RuntimeError):
        iface.send(Packet(100, dst="rx"))


def test_on_tx_start_hook_fires_at_serialization_start(sim):
    """The hook fires when the wire picks the packet up, not at send()."""
    sender, iface, __ = wire(sim, rate_mbit=8.0, delay_ms=10.0)
    stamps = []
    first = Packet(1000, dst="rx")
    second = Packet(1000, dst="rx")
    second.on_tx_start = lambda __arg: stamps.append(sim.now)
    sender.send(first)
    sender.send(second)
    sim.run()
    # The second packet starts serializing when the first finishes (1 ms).
    assert stamps == [pytest.approx(0.001)]


def test_on_tx_start_hook_fires_once(sim):
    sender, iface, __ = wire(sim)
    count = []
    p = Packet(1000, dst="rx")
    p.on_tx_start = count.append
    p.on_tx_start_arg = 1
    sender.send(p)
    sim.run()
    assert count == [1]
    assert p.on_tx_start is None
