"""Unit tests for apps, CircuitSpec and CircuitFlow."""

from __future__ import annotations

import pytest

from repro.tor.apps import SinkApp
from repro.tor.cells import DataCell
from repro.tor.circuit import CircuitSpec, allocate_circuit_id
from repro.transport.config import CELL_PAYLOAD

from helpers import make_chain_flow


# ----------------------------------------------------------------------
# SinkApp
# ----------------------------------------------------------------------


def test_sink_counts_bytes_and_completes(sim):
    sink = SinkApp(sim, 1, expected_bytes=CELL_PAYLOAD * 2)
    sink.on_cell(DataCell(1, 1, 0, CELL_PAYLOAD))
    assert not sink.done
    sink.on_cell(DataCell(1, 1, CELL_PAYLOAD, CELL_PAYLOAD))
    assert sink.done
    assert sink.completed.triggered
    assert sink.completed.value == sim.now


def test_sink_records_first_and_last_times(sim):
    sink = SinkApp(sim, 1, expected_bytes=CELL_PAYLOAD)
    sim.schedule(1.0, sink.on_cell, DataCell(1, 1, 0, CELL_PAYLOAD))
    sim.run()
    assert sink.first_cell_time == 1.0
    assert sink.last_cell_time == 1.0


def test_sink_validates_expected_bytes(sim):
    with pytest.raises(ValueError):
        SinkApp(sim, 1, expected_bytes=0)


# ----------------------------------------------------------------------
# CircuitSpec
# ----------------------------------------------------------------------


def test_circuit_spec_path():
    spec = CircuitSpec(1, "src", ["r1", "r2"], "dst")
    assert spec.node_path == ["src", "r1", "r2", "dst"]


def test_circuit_spec_rejects_duplicates():
    with pytest.raises(ValueError):
        CircuitSpec(1, "a", ["a"], "b")
    with pytest.raises(ValueError):
        CircuitSpec(1, "a", ["r", "r"], "b")


def test_circuit_spec_requires_relays():
    with pytest.raises(ValueError):
        CircuitSpec(1, "a", [], "b")


def test_allocate_circuit_id_unique():
    a = allocate_circuit_id()
    b = allocate_circuit_id()
    assert a != b


# ----------------------------------------------------------------------
# CircuitFlow end-to-end
# ----------------------------------------------------------------------


def test_flow_transfers_full_payload(sim):
    payload = CELL_PAYLOAD * 50
    flow, __, __s = make_chain_flow(sim, payload_bytes=payload)
    sim.run()
    assert flow.sink.done
    assert flow.sink.received_bytes == payload


def test_flow_time_to_last_byte_positive(sim):
    flow, __, __s = make_chain_flow(sim, payload_bytes=CELL_PAYLOAD * 20)
    sim.run()
    assert flow.sink.completed.value - flow.start_time > 0


def test_flow_start_time_offsets_transfer(sim):
    flow, __, __s = make_chain_flow(
        sim, payload_bytes=CELL_PAYLOAD * 10, start_time=2.0
    )
    sim.run()
    assert flow.sink.completed.value > 2.0
    assert flow.sink.completed.value - flow.start_time < flow.sink.completed.value


def test_flow_controller_per_hop(sim):
    flow, __, __s = make_chain_flow(sim, relay_count=3)
    # 4 hop senders: source + 3 relays; one controller each, all distinct.
    assert len(flow.hop_senders) == 4
    assert len(flow.controllers) == 4
    assert len(set(map(id, flow.controllers))) == 4
    assert flow.source_controller is flow.controllers[0]


def test_flow_controller_kind_applied(sim):
    flow, __, __s = make_chain_flow(sim, controller_kind="fixed")
    from repro.core.baselines import FixedWindowController

    assert all(isinstance(c, FixedWindowController) for c in flow.controllers)


def test_flow_trace_records_initial_point(sim):
    from repro.analysis.trace import TraceRecorder

    flow, __, __s = make_chain_flow(sim, payload_bytes=CELL_PAYLOAD * 200)
    recorder = TraceRecorder()
    flow.trace_cwnd(recorder)
    sim.run()
    assert recorder.times[0] == 0.0
    assert recorder.values[0] == 2.0
    assert len(recorder) > 1  # the window moved during the transfer


def test_flow_relay_cwnds_shape(sim):
    flow, __, __s = make_chain_flow(sim)
    windows = [controller.cwnd_cells for controller in flow.controllers]
    assert len(windows) == 4
    assert all(w >= 2 for w in windows)


def test_flow_works_with_single_relay(sim):
    flow, __, __s = make_chain_flow(sim, relay_count=1, rates_mbit=[16.0, 16.0])
    sim.run()
    assert flow.sink.done


def test_flow_delivery_in_order(sim):
    """Stream offsets arrive strictly increasing: per-circuit FIFO."""
    offsets = []
    flow, __, __s = make_chain_flow(sim, payload_bytes=CELL_PAYLOAD * 30)
    original = flow.sink.on_cell

    def spy(cell):
        offsets.append(cell.offset)
        original(cell)

    flow.sink.on_cell = spy
    # Rebind the sink handler used by the host.
    flow.hosts[-1].circuits[flow.spec.circuit_id].sink = flow.sink
    sim.run()
    assert offsets == sorted(offsets)
    assert len(offsets) == 30
