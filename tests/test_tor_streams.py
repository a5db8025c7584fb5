"""Unit tests for stream multiplexing (repro.tor.streams)."""

from __future__ import annotations

import pytest

from repro.tor.streams import MessageRecord, MultiStreamSink, Stream, StreamScheduler
from repro.transport.config import CELL_PAYLOAD

from helpers import make_chain_flow


# ----------------------------------------------------------------------
# Stream
# ----------------------------------------------------------------------


def test_stream_validates_id():
    with pytest.raises(ValueError):
        Stream(0)


def test_queue_message_validates_size():
    with pytest.raises(ValueError):
        Stream(1).queue_message(0, now=0.0)


def test_next_cell_carves_message_into_cells():
    stream = Stream(1)
    stream.queue_message(CELL_PAYLOAD * 2 + 10, now=0.0)
    sizes = []
    while (cell := stream.next_cell(circuit_id=7)) is not None:
        sizes.append(cell.payload_bytes)
    assert sizes == [CELL_PAYLOAD, CELL_PAYLOAD, 10]


def test_only_final_cell_is_last():
    stream = Stream(1)
    stream.queue_message(CELL_PAYLOAD + 1, now=0.0)
    first = stream.next_cell(1)
    second = stream.next_cell(1)
    assert not first.is_last
    assert second.is_last
    assert second.message_id == first.message_id


def test_offsets_are_contiguous_across_messages():
    stream = Stream(1)
    stream.queue_message(CELL_PAYLOAD, now=0.0)
    stream.queue_message(CELL_PAYLOAD, now=0.0)
    a = stream.next_cell(1)
    b = stream.next_cell(1)
    assert b.offset == a.offset + a.payload_bytes


def test_next_cell_empty_returns_none():
    assert Stream(1).next_cell(1) is None


def test_message_latency_requires_delivery():
    record = MessageRecord(1, 0, 100, queued_at=1.0)
    with pytest.raises(RuntimeError):
        __ = record.latency
    record.last_byte_at = 1.5
    assert record.latency == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Scheduler (round-robin fairness)
# ----------------------------------------------------------------------


def make_scheduler(sim):
    flow, __, __s = make_chain_flow(sim, workload_none=True)
    scheduler = StreamScheduler(flow.hop_senders[0], flow.spec.circuit_id)
    sink = MultiStreamSink(sim, flow.spec.circuit_id)
    flow.hosts[-1].attach_sink_app(flow.spec.circuit_id, sink)
    return flow, scheduler


def test_scheduler_rejects_duplicate_stream(sim):
    flow, scheduler = make_scheduler(sim)
    scheduler.open_stream(1)
    with pytest.raises(ValueError):
        scheduler.open_stream(1)


def test_round_robin_interleaves_busy_streams(sim):
    flow, scheduler = make_scheduler(sim)
    scheduler.open_stream(1)
    scheduler.open_stream(2)
    sent_streams = []
    sender = flow.hop_senders[0]
    original_transmit = sender._transmit

    def spy(cell, token):
        sent_streams.append(cell.stream_id)
        original_transmit(cell, token)

    sender._transmit = spy
    scheduler.send_message(1, CELL_PAYLOAD * 6, now=0.0)
    scheduler.send_message(2, CELL_PAYLOAD * 6, now=0.0)
    sim.run_until(5.0)
    # Both streams get equal service, and (after the initial window,
    # which is pulled before stream 2 has data) neither stream ever
    # monopolizes the sender for 3 cells in a row.
    first_dozen = sent_streams[:12]
    assert first_dozen.count(1) == 6
    assert first_dozen.count(2) == 6
    runs = [first_dozen[i] == first_dozen[i + 1] == first_dozen[i + 2]
            for i in range(2, len(first_dozen) - 2)]
    assert not any(runs)


def test_small_message_not_blocked_by_bulk(sim):
    """The next interactive cell goes out within ~one cell of a bulk
    backlog — no head-of-line blocking."""
    flow, scheduler = make_scheduler(sim)
    scheduler.open_stream(1)
    scheduler.open_stream(2)
    scheduler.send_message(1, CELL_PAYLOAD * 500, now=0.0)  # bulk backlog
    sim.run_until(0.2)
    sent_streams = []
    sender = flow.hop_senders[0]
    original_transmit = sender._transmit

    def spy(cell, token):
        sent_streams.append(cell.stream_id)
        original_transmit(cell, token)

    sender._transmit = spy
    scheduler.send_message(2, CELL_PAYLOAD, now=sim.now)
    sim.run_until(0.4)
    assert 2 in sent_streams[:3]


def test_end_to_end_multiplexed_delivery(sim):
    flow, scheduler = make_scheduler(sim)
    scheduler.open_stream(1)
    scheduler.open_stream(2)
    sink = MultiStreamSink(sim, flow.spec.circuit_id,
                           expected_bytes=CELL_PAYLOAD * 30)
    flow.hosts[-1].attach_sink_app(flow.spec.circuit_id, sink)
    scheduler.send_message(1, CELL_PAYLOAD * 20, now=0.0)
    scheduler.send_message(2, CELL_PAYLOAD * 10, now=0.0)
    sim.run_until(10.0)
    assert sink.done
    assert sink.per_stream_bytes[1] == CELL_PAYLOAD * 20
    assert sink.per_stream_bytes[2] == CELL_PAYLOAD * 10
    assert len(sink.delivered_messages) == 2


from hypothesis import HealthCheck, given, settings, strategies as st


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    message_plan=st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),
                  st.integers(min_value=1, max_value=3 * CELL_PAYLOAD)),
        min_size=1,
        max_size=12,
    )
)
def test_property_per_stream_byte_conservation(message_plan):
    """Any mix of messages over any streams is delivered exactly."""
    from repro.sim.simulator import Simulator

    sim = Simulator()
    flow, __, __s = make_chain_flow(sim, workload_none=True)
    scheduler = StreamScheduler(flow.hop_senders[0], flow.spec.circuit_id)
    sink = MultiStreamSink(sim, flow.spec.circuit_id)
    flow.hosts[-1].attach_sink_app(flow.spec.circuit_id, sink)
    expected = {}
    for stream_id, size in message_plan:
        if stream_id not in expected:
            scheduler.open_stream(stream_id)
            expected[stream_id] = 0
        scheduler.send_message(stream_id, size, now=0.0)
        expected[stream_id] += size
    sim.run_until(60.0)
    assert sink.per_stream_bytes == expected
    assert len(sink.delivered_messages) == len(message_plan)


def test_sink_message_callback(sim):
    flow, scheduler = make_scheduler(sim)
    scheduler.open_stream(1)
    sink = MultiStreamSink(sim, flow.spec.circuit_id)
    flow.hosts[-1].attach_sink_app(flow.spec.circuit_id, sink)
    seen = []
    sink.on_message = lambda stream, message, at: seen.append((stream, message))
    scheduler.send_message(1, CELL_PAYLOAD * 2, now=0.0)
    scheduler.send_message(1, CELL_PAYLOAD, now=0.0)
    sim.run_until(5.0)
    assert seen == [(1, 0), (1, 1)]
