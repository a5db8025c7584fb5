"""Hypothesis property tests for loss recovery.

For *any* pattern of scripted losses on any link of the circuit, the
reliable transport must deliver the payload exactly once, in order —
the defining property of per-hop reliability.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.faults import BernoulliLossModel, ScriptedLossModel, install_fault_model
from repro.sim.simulator import Simulator
from repro.transport.config import CELL_PAYLOAD, TransportConfig

from helpers import make_chain_flow


RELIABLE = TransportConfig(reliable=True, rto_min=0.05, rto_initial=0.3)

#: (node, peer) pairs of the default 3-relay chain, both directions.
LINKS = [
    ("source", "relay1"), ("relay1", "relay2"), ("relay2", "relay3"),
    ("relay3", "sink"), ("relay1", "source"), ("relay2", "relay1"),
    ("relay3", "relay2"), ("sink", "relay3"),
]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    link_index=st.integers(min_value=0, max_value=len(LINKS) - 1),
    drops=st.sets(st.integers(min_value=0, max_value=60), max_size=8),
    payload_cells=st.integers(min_value=5, max_value=50),
)
def test_property_any_loss_pattern_recovers(link_index, drops, payload_cells):
    sim = Simulator()
    flow, topology, __ = make_chain_flow(
        sim, payload_bytes=payload_cells * CELL_PAYLOAD, config=RELIABLE
    )
    node, peer = LINKS[link_index]
    install_fault_model(
        topology._interface_between(node, peer), ScriptedLossModel(drops)
    )

    offsets = []
    original = flow.sink.on_cell

    def spy(cell):
        offsets.append(cell.offset)
        original(cell)

    flow.sink.on_cell = spy
    sim.run_until(120.0)

    assert flow.sink.done
    assert flow.sink.received_bytes == flow.payload_bytes
    # Exactly-once, in-order delivery at the application.
    assert offsets == sorted(offsets)
    assert len(offsets) == len(set(offsets)) == payload_cells


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    drops_forward=st.sets(st.integers(min_value=0, max_value=40), max_size=5),
    drops_reverse=st.sets(st.integers(min_value=0, max_value=40), max_size=5),
)
def test_property_simultaneous_data_and_feedback_loss(drops_forward, drops_reverse):
    """Losses on the data path and the feedback path at once."""
    sim = Simulator()
    flow, topology, __ = make_chain_flow(
        sim, payload_bytes=30 * CELL_PAYLOAD, config=RELIABLE
    )
    install_fault_model(
        topology._interface_between("relay1", "relay2"),
        ScriptedLossModel(drops_forward),
    )
    install_fault_model(
        topology._interface_between("relay2", "relay1"),
        ScriptedLossModel(drops_reverse),
    )
    sim.run_until(120.0)
    assert flow.sink.done
    assert flow.sink.received_bytes == flow.payload_bytes


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    loss_rate=st.floats(min_value=0.0, max_value=0.2),
    link_index=st.integers(min_value=0, max_value=len(LINKS) - 1),
)
def test_property_seeded_bernoulli_fault_plane_recovers(
    seed, loss_rate, link_index
):
    """Seeded Bernoulli loss via the fault plane: full in-order delivery.

    Unlike the scripted-loss tests above, the loss here is random — the
    model the adversity scenarios use — with an explicitly seeded RNG,
    so any failure is replayable from (seed, loss_rate, link_index)
    alone.
    """
    payload_cells = 20
    sim = Simulator()
    flow, topology, __ = make_chain_flow(
        sim, payload_bytes=payload_cells * CELL_PAYLOAD, config=RELIABLE
    )
    interface = topology._interface_between(*LINKS[link_index])
    model = install_fault_model(
        interface, BernoulliLossModel(random.Random(seed), loss_rate)
    )

    offsets = []
    original = flow.sink.on_cell

    def spy(cell):
        offsets.append(cell.offset)
        original(cell)

    flow.sink.on_cell = spy
    sim.run_until(300.0)

    assert flow.sink.done
    assert flow.sink.received_bytes == flow.payload_bytes
    # Exactly-once, in-order delivery despite every dropped packet.
    assert offsets == sorted(offsets)
    assert len(offsets) == len(set(offsets)) == payload_cells
    if model.packets_dropped:
        assert model.packets_seen > model.packets_dropped
