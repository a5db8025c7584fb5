"""Integration tests: whole-stack circuits and cross-module invariants."""

from __future__ import annotations

import pytest

from repro.experiments.netgen import (
    NetworkConfig,
    instantiate_network,
    plan_network,
)
from repro.net.faults import ScriptedLossModel, install_fault_model
from repro.sim.rand import RandomStreams
from repro.sim.simulator import Simulator
from repro.tor.circuit import CircuitFlow, CircuitSpec
from repro.tor.path_selection import PathSelector
from repro.transport.config import CELL_PAYLOAD, TransportConfig

from helpers import link_packet_totals, make_chain_flow


def test_transfer_conserves_cells(sim):
    """Cells sent by the source equal cells delivered at the sink; every
    hop forwarded every cell exactly once."""
    payload = CELL_PAYLOAD * 120
    flow, __, __s = make_chain_flow(sim, payload_bytes=payload)
    sim.run()
    expected_cells = 120
    assert flow.source_app.cell_count == expected_cells
    assert flow.sink.cells_received == expected_cells
    for sender in flow.hop_senders:
        assert sender.cells_sent == expected_cells
        assert sender.feedback_received == expected_cells
        assert sender.duplicate_feedback == 0
        assert sender.buffered_cells == 0 and sender.inflight_cells == 0


def test_feedback_volume_matches_data(sim):
    """Each relay and the sink acknowledge every data cell once."""
    payload = CELL_PAYLOAD * 40
    flow, __, __s = make_chain_flow(sim, payload_bytes=payload)
    sim.run()
    for host in flow.hosts[1:]:
        assert host.feedback_sent == 40


def test_relay_buffers_bounded_by_upstream_window(sim):
    """Backpressure: a relay's transport buffer never exceeds the
    largest window its predecessor ever had (cells in flight)."""
    payload = CELL_PAYLOAD * 400
    flow, __, __s = make_chain_flow(
        sim, rates_mbit=[50.0, 50.0, 2.0, 50.0], payload_bytes=payload
    )
    peaks = {}
    # The largest window each hop ever had: its start value, then every
    # change the controller reports.
    peak_windows = []
    for controller in flow.controllers:
        peak_windows.append(controller.cwnd_cells)

        def record(now, cwnd, hop=len(peak_windows) - 1):
            peak_windows[hop] = max(peak_windows[hop], cwnd)

        controller.bind_cwnd_listener(record)

    def watch():
        for i, sender in enumerate(flow.hop_senders):
            peaks[i] = max(peaks.get(i, 0), sender.buffered_cells)
        if not flow.sink.done:
            sim.schedule(0.005, watch)

    sim.schedule(0.0, watch)
    sim.run()
    assert flow.sink.done
    # Each relay's buffer is fed by its predecessor's in-flight cells.
    for i in range(1, len(flow.hop_senders)):
        assert peaks.get(i, 0) <= peak_windows[i - 1] + 2


def _bottlenecked_chain_totals(sim, drops=()):
    flow, topology, __ = make_chain_flow(
        sim, rates_mbit=[50.0, 4.0, 50.0, 50.0], payload_bytes=CELL_PAYLOAD * 300
    )
    if drops:
        install_fault_model(
            topology._interface_between("relay1", "relay2"), ScriptedLossModel(drops)
        )
    sim.run()
    return link_packet_totals(topology)


def test_no_data_loss_on_unbounded_queues(sim):
    """The transport never relies on loss: every packet sent arrives."""
    sent, received = _bottlenecked_chain_totals(sim)
    assert sent == received


@pytest.mark.parametrize("drops", [{3}, {3, 4}], ids=["one", "two"])
def test_packet_conservation_sees_scripted_drops(sim, drops):
    """The check above has teeth: each packet lost on the wire shows."""
    sent, received = _bottlenecked_chain_totals(sim, drops)
    assert sent == received + len(drops)


def test_deterministic_repetition():
    """Two identical runs produce byte-identical completion times."""

    def run_once():
        sim = Simulator()
        flow, __, __s = make_chain_flow(sim, payload_bytes=CELL_PAYLOAD * 100)
        sim.run()
        return flow.sink.completed.value

    assert run_once() == run_once()


def test_two_circuits_share_a_relay(sim):
    """Concurrent circuits through one relay both finish; shared-link
    contention slows them relative to a lone circuit."""
    from repro.net.topology import LinkSpec, build_star
    from repro.units import mbit_per_second, milliseconds

    spec = LinkSpec(mbit_per_second(16), milliseconds(5))
    slow = LinkSpec(mbit_per_second(4), milliseconds(5))
    leaves = {
        "src1": spec, "src2": spec, "dst1": spec, "dst2": spec,
        "shared": slow, "other1": spec, "other2": spec,
    }
    topo = build_star(sim, "hub", leaves)
    config = TransportConfig()
    flows = [
        CircuitFlow(
            sim, topo,
            CircuitSpec(1, "src1", ["other1", "shared"], "dst1"),
            config, payload_bytes=CELL_PAYLOAD * 150,
        ),
        CircuitFlow(
            sim, topo,
            CircuitSpec(2, "src2", ["other2", "shared"], "dst2"),
            config, payload_bytes=CELL_PAYLOAD * 150,
        ),
    ]
    sim.run()
    assert all(flow.sink.done for flow in flows)
    times = [flow.sink.completed.value - flow.start_time for flow in flows]
    # Fair-ish sharing: neither circuit is starved.
    assert max(times) < 4 * min(times)


def test_star_network_circuit_with_selected_path():
    """Full pipeline: generate network, select a path, run a download."""
    sim = Simulator()
    streams = RandomStreams(11)
    net = instantiate_network(
        plan_network(
            NetworkConfig(relay_count=8, client_count=2, server_count=2), streams
        ),
        sim,
    )
    selector = PathSelector(net.directory, streams.stream("paths"))
    relays = [r.name for r in selector.select_path(3)]
    flow = CircuitFlow(
        sim,
        net.topology,
        CircuitSpec(1, net.server_names[0], relays, net.client_names[0]),
        TransportConfig(),
        payload_bytes=CELL_PAYLOAD * 100,
    )
    sim.run()
    assert flow.sink.done
    assert flow.sink.received_bytes == CELL_PAYLOAD * 100


def test_all_controller_kinds_complete_a_transfer(sim):
    """Every registered start-up scheme moves data end to end."""
    from repro.core.factory import controller_kinds

    payload = CELL_PAYLOAD * 30
    for kind in controller_kinds():
        fresh = Simulator()
        flow, __, __s = make_chain_flow(
            fresh, controller_kind=kind, payload_bytes=payload
        )
        fresh.run()
        assert flow.sink.done, "controller %s failed to complete" % kind


def test_windows_respect_min_and_max_throughout(sim):
    config = TransportConfig(max_cwnd_cells=32)
    flow, __, __s = make_chain_flow(
        sim, payload_bytes=CELL_PAYLOAD * 300, config=config
    )
    violations = []

    def watch():
        for controller in flow.controllers:
            if not (
                config.min_cwnd_cells
                <= controller.cwnd_cells
                <= config.max_cwnd_cells
            ):
                violations.append(controller.cwnd_cells)
        if not flow.sink.done:
            sim.schedule(0.002, watch)

    sim.schedule(0.0, watch)
    sim.run()
    assert violations == []
