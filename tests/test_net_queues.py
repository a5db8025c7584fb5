"""Unit and property tests for egress queues (repro.net.queues)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, FifoQueue, ScriptedLossQueue


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
        assert q.offer(p)
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
    assert q.stats.dropped == 0
    assert q.stats.max_depth_packets == 3
    assert q.stats.max_depth_bytes == 150


def test_fifo_clear():
    q = FifoQueue()
    for __ in range(4):
        q.offer(make_packet())
    assert q.clear() == 4
    assert len(q) == 0
    assert q.bytes_queued == 0


def test_droptail_accepts_up_to_capacity():
    q = DropTailQueue(2)
    assert q.offer(make_packet())
    assert q.offer(make_packet())
    assert not q.offer(make_packet())
    assert len(q) == 2
    assert q.stats.dropped == 1


def test_droptail_capacity_must_be_positive():
    with pytest.raises(ValueError):
        DropTailQueue(0)


def test_droptail_frees_space_after_take():
    q = DropTailQueue(1)
    q.offer(make_packet())
    assert not q.offer(make_packet())
    q.take()
    assert q.offer(make_packet())


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


@given(
    st.integers(min_value=1, max_value=10),
    st.lists(st.booleans(), max_size=200),
)
def test_property_droptail_never_exceeds_capacity(capacity, ops):
    """Interleaved offers/takes never push depth past capacity and
    counters always balance: enqueued == dequeued + dropped + queued."""
    q = DropTailQueue(capacity)
    offered = 0
    for is_offer in ops:
        if is_offer:
            q.offer(make_packet())
            offered += 1
        else:
            q.take()
        assert len(q) <= capacity
    assert offered == q.stats.enqueued + q.stats.dropped
    assert q.stats.enqueued == q.stats.dequeued + len(q)


# ----------------------------------------------------------------------
# pass_through: the idle-wire verdict must leave offer + take's stats
# ----------------------------------------------------------------------

DISCIPLINES = [
    FifoQueue,
    lambda: DropTailQueue(1),
    lambda: ScriptedLossQueue({1, 2}),
]


@pytest.mark.parametrize("make_queue", DISCIPLINES, ids=["fifo", "droptail", "scripted"])
@given(st.lists(st.integers(min_value=1, max_value=1500), min_size=1, max_size=12))
def test_pass_through_equals_offer_then_take_on_an_empty_queue(make_queue, sizes):
    round_trip, direct = make_queue(), make_queue()
    for size in sizes:
        packet = make_packet(size)
        accepted = round_trip.offer(packet)
        assert (round_trip.take() is packet) == accepted
        assert direct.pass_through(packet) == accepted
        assert direct.stats == round_trip.stats
        assert len(direct) == 0 and direct.bytes_queued == 0
    assert direct.stats.max_depth_packets == (1 if direct.stats.enqueued else 0)


def test_pass_through_depth_marks_never_shrink():
    q = FifoQueue()
    for __ in range(3):
        q.offer(make_packet(400))
    while q:
        q.take()
    assert q.pass_through(make_packet(50))
    assert (q.stats.max_depth_packets, q.stats.max_depth_bytes) == (3, 1200)
    assert (q.stats.enqueued, q.stats.dequeued, q.stats.current_bytes) == (4, 4, 0)


@given(st.frozensets(st.integers(0, 15), max_size=6), st.lists(st.booleans(), max_size=16))
def test_scripted_loss_indexes_arrivals_across_offer_and_pass_through(drops, direct):
    """The n-th arrival is dropped iff n is scripted, however it arrives."""
    q = ScriptedLossQueue(drops)
    for index, use_pass_through in enumerate(direct):
        packet = make_packet()
        if use_pass_through:
            accepted = q.pass_through(packet)
        else:
            accepted = q.offer(packet)
            assert (q.take() is packet) == accepted
        assert accepted == (index not in drops)
    dropped = sum(1 for index in range(len(direct)) if index in drops)
    assert q.stats.dropped == dropped
    assert q.stats.enqueued == q.stats.dequeued == len(direct) - dropped
