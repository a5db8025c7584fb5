"""Unit and property tests for an interface's egress FIFO.

Packets that find the wire busy wait in :class:`~repro.net.link.Interface`'s
own unbounded backlog, which never drops; these tests drive it through
``send`` and read it through ``backlog_packets`` / ``max_backlog_packets``
and what the far end receives.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.net.link import Interface, Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.units import Rate


def wired():
    """A simulator and an interface whose far end records what arrives."""
    sim = Simulator()
    received = []
    iface = Interface(sim, Node(sim, "tx"), Link(Rate(1e6), 0.001))
    iface.attach_peer(
        Node(sim, "rx", handler=lambda packet, node: received.append(packet))
    )
    return sim, iface, received


def test_fifo_starts_empty():
    __, iface, __ = wired()
    assert iface.backlog_packets == iface.max_backlog_packets == 0
    assert not iface.busy


def test_fifo_order_preserved():
    sim, iface, received = wired()
    packets = [Packet(100) for __ in range(5)]
    for p in packets:
        iface.send(p)
    sim.run()
    assert received == packets


def test_fifo_bytes_accounting():
    # Bytes count when a packet goes onto the wire, not when it is queued.
    sim, iface, __ = wired()
    iface.send(Packet(100))
    iface.send(Packet(200))
    assert (iface.packets_sent, iface.bytes_sent) == (1, 100)
    sim.run()
    assert (iface.packets_sent, iface.bytes_sent) == (2, 300)


def test_fifo_stats():
    sim, iface, __ = wired()
    for __i in range(3):
        iface.send(Packet(50))
    # One packet is on the wire, two wait behind it.
    assert (iface.packets_sent, iface.backlog_packets) == (1, 2)
    sim.run()
    assert (iface.packets_sent, iface.backlog_packets) == (3, 0)
    assert iface.max_backlog_packets == 2
    # A packet onto an idle wire never waited: the mark does not move.
    iface.send(Packet(50))
    sim.run()
    assert (iface.packets_sent, iface.max_backlog_packets) == (4, 2)


@given(st.lists(st.integers(min_value=1, max_value=1500), max_size=100))
def test_property_fifo_conservation(sizes):
    """Everything sent through an unbounded FIFO comes out, in order."""
    sim, iface, received = wired()
    packets = [Packet(s) for s in sizes]
    for p in packets:
        iface.send(p)
    sim.run()
    assert received == packets
    assert (iface.packets_sent, iface.bytes_sent) == (len(sizes), sum(sizes))
    assert iface.backlog_packets == 0
    assert iface.max_backlog_packets == max(len(sizes) - 1, 0)
