"""Hypothesis property tests over whole randomized simulations.

Each test generates random circuit parameters (link rates, delays,
payload, controller kind), runs a full end-to-end simulation and checks
invariants that must hold for *any* configuration:

* the transfer completes and delivers exactly the payload;
* delivery is in order (per-circuit FIFO);
* cells are conserved at every hop;
* every packet put on a wire arrives (backpressure, not loss);
* the source window stays within configured bounds.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.simulator import Simulator
from repro.transport.config import CELL_PAYLOAD, TransportConfig

from helpers import link_packet_totals, make_chain_flow


link_rates = st.lists(
    st.floats(min_value=2.0, max_value=64.0), min_size=3, max_size=5
)

controller_kind = st.sampled_from(
    ["circuitstart", "without", "plain-slowstart", "fixed", "jumpstart", "dynamic"]
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rates=link_rates,
    delay_ms=st.floats(min_value=1.0, max_value=30.0),
    payload_cells=st.integers(min_value=1, max_value=120),
    kind=controller_kind,
)
def test_property_every_transfer_completes_exactly(
    rates, delay_ms, payload_cells, kind
):
    sim = Simulator()
    relay_count = len(rates) - 1
    payload = payload_cells * CELL_PAYLOAD - 17  # non-aligned payload
    payload = max(payload, 1)
    flow, topology, __ = make_chain_flow(
        sim,
        relay_count=relay_count,
        rates_mbit=rates,
        delay_ms=delay_ms,
        controller_kind=kind,
        payload_bytes=payload,
    )
    offsets = []
    original = flow.sink.on_cell

    def spy(cell):
        offsets.append(cell.offset)
        original(cell)

    flow.sink.on_cell = spy
    sim.run(max_events=2_000_000)

    # Completion and exact delivery.
    assert flow.sink.done
    assert flow.sink.received_bytes == payload
    # In-order delivery.
    assert offsets == sorted(offsets)
    # Conservation at every hop.
    for sender in flow.hop_senders:
        assert sender.cells_sent == flow.source_app.cell_count
        assert sender.duplicate_feedback == 0
        assert sender.buffered_cells == 0 and sender.inflight_cells == 0
    # No loss anywhere: every packet sent was received.
    sent, received = link_packet_totals(topology)
    assert sent == received


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rates=link_rates,
    payload_cells=st.integers(min_value=10, max_value=150),
    gamma=st.floats(min_value=1.0, max_value=16.0),
)
def test_property_window_bounds_hold(rates, payload_cells, gamma):
    sim = Simulator()
    config = TransportConfig(gamma=gamma, max_cwnd_cells=256)
    flow, __, __s = make_chain_flow(
        sim,
        relay_count=len(rates) - 1,
        rates_mbit=rates,
        payload_bytes=payload_cells * CELL_PAYLOAD,
        config=config,
    )
    seen = []

    def record(now, cwnd):
        seen.append(cwnd)

    flow.source_controller.bind_cwnd_listener(record)
    sim.run(max_events=2_000_000)
    assert flow.sink.done
    for cwnd in seen:
        assert config.min_cwnd_cells <= cwnd <= config.max_cwnd_cells


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed_a=st.integers(min_value=0, max_value=2**20),
    payload_cells=st.integers(min_value=5, max_value=60),
)
def test_property_simulations_are_deterministic(seed_a, payload_cells):
    """Same inputs, same results — regardless of the (unused) seed."""

    def run_once():
        sim = Simulator()
        flow, __, __s = make_chain_flow(
            sim, payload_bytes=payload_cells * CELL_PAYLOAD
        )
        sim.run()
        return (flow.sink.completed.value, flow.source_controller.cwnd_cells)

    assert run_once() == run_once()
