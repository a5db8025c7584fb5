"""Unit and property tests for egress queues (repro.net.queues)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import Packet
from repro.net.queues import FifoQueue


def make_packet(size=100):
    return Packet(size)


def test_fifo_starts_empty():
    q = FifoQueue()
    assert len(q) == 0
    assert not q
    assert q.take() is None
    assert q.peek() is None


def test_fifo_order_preserved():
    q = FifoQueue()
    packets = [make_packet() for __ in range(5)]
    for p in packets:
        q.offer(p)
    assert [q.take() for __ in range(5)] == packets


def test_fifo_peek_does_not_remove():
    q = FifoQueue()
    p = make_packet()
    q.offer(p)
    assert q.peek() is p
    assert len(q) == 1


def test_fifo_bytes_accounting():
    q = FifoQueue()
    q.offer(make_packet(100))
    q.offer(make_packet(200))
    assert q.bytes_queued == 300
    q.take()
    assert q.bytes_queued == 200


def test_fifo_stats():
    q = FifoQueue()
    for __ in range(3):
        q.offer(make_packet(50))
    q.take()
    assert q.stats.enqueued == 3
    assert q.stats.dequeued == 1
    assert q.stats.max_depth_packets == 3
    assert q.stats.max_depth_bytes == 150


def test_fifo_clear():
    q = FifoQueue()
    for __ in range(4):
        q.offer(make_packet())
    assert q.clear() == 4
    assert len(q) == 0
    assert q.bytes_queued == 0


@given(st.lists(st.integers(min_value=1, max_value=1500), max_size=100))
def test_property_fifo_conservation(sizes):
    """Everything offered to an unbounded FIFO comes back out, in order."""
    q = FifoQueue()
    packets = [make_packet(s) for s in sizes]
    for p in packets:
        q.offer(p)
    out = []
    while q:
        out.append(q.take())
    assert out == packets
    assert q.bytes_queued == 0


# ----------------------------------------------------------------------
# pass_through: the idle-wire shortcut must leave offer + take's stats
# ----------------------------------------------------------------------

@pytest.mark.parametrize("queue_type", [FifoQueue], ids=["fifo"])
@given(st.lists(st.integers(min_value=1, max_value=1500), min_size=1, max_size=12))
def test_pass_through_equals_offer_then_take_on_an_empty_queue(queue_type, sizes):
    round_trip, direct = queue_type(), queue_type()
    for size in sizes:
        packet = make_packet(size)
        round_trip.offer(packet)
        assert round_trip.take() is packet
        direct.pass_through(packet)
        assert direct.stats == round_trip.stats
        assert len(direct) == 0 and direct.bytes_queued == 0
    assert direct.stats.max_depth_packets == 1


def test_pass_through_depth_marks_never_shrink():
    q = FifoQueue()
    for __ in range(3):
        q.offer(make_packet(400))
    while q:
        q.take()
    q.pass_through(make_packet(50))
    assert (q.stats.max_depth_packets, q.stats.max_depth_bytes) == (3, 1200)
    assert (q.stats.enqueued, q.stats.dequeued, q.stats.current_bytes) == (4, 4, 0)
