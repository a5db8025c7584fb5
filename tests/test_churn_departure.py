"""Churn departures against in-flight traffic and armed timers.

An :class:`OpenLoopChurn` departure calls :meth:`CircuitFlow.teardown`,
which must leave *nothing* behind: every host forgets the circuit (late
cells are counted, not raised), every hop sender's retransmission timer
is cancelled, and the simulator's queue drains to empty — no dead
events firing on closed state.
"""

from __future__ import annotations

from repro.net.faults import ScriptedLossModel, install_fault_model
from repro.sim.simulator import Simulator
from repro.transport.config import CELL_PAYLOAD, TransportConfig

from helpers import make_chain_flow

RELIABLE = TransportConfig(reliable=True, rto_min=0.05, rto_initial=0.3)


def _live_senders(flow):
    return [
        state.sender
        for host in flow.hosts
        for state in host.circuits.values()
        if state.sender is not None
    ]


def test_retired_circuit_tolerates_late_cells():
    """Cells in flight toward a departed circuit are counted, not raised."""
    sim = Simulator()
    flow, topology, __ = make_chain_flow(
        sim, payload_bytes=40 * CELL_PAYLOAD
    )
    # Stop mid-transfer: with 8 ms links there are always cells (and
    # feedback) in flight toward every host on the path.
    sim.run_until(0.02)
    assert not flow.sink.done
    flow.teardown()
    circuit_id = flow.spec.circuit_id
    for host in flow.hosts:
        assert circuit_id in host.retired
        assert circuit_id not in host.circuits
    sim.run_until(10.0)
    # The in-flight stragglers arrived, were recognized as late, and
    # were dropped without touching (now nonexistent) circuit state.
    assert sum(host.late_cells for host in flow.hosts) > 0
    assert sim.pending_events == 0
    # Teardown is idempotent.
    flow.teardown()


def test_departure_mid_retransmission_cancels_rto_timers():
    """Departing while go-back-N is mid-recovery leaves no dead events.

    Scripted loss forces a hop into retransmission, so its RTO timer is
    armed (and a retransmission pending) when the circuit departs; the
    teardown must disarm every timer and the queue must drain to empty.
    """
    sim = Simulator()
    flow, topology, __ = make_chain_flow(
        sim, payload_bytes=40 * CELL_PAYLOAD, config=RELIABLE
    )
    # Drop the first two cells crossing the middle link: relay1's hop
    # sender is stuck waiting for its RTO when we stop the clock.
    model = install_fault_model(
        topology._interface_between("relay1", "relay2"),
        ScriptedLossModel({0, 1}),
    )
    sim.run_until(0.02)
    assert not flow.sink.done
    assert model.packets_dropped == 2
    senders = _live_senders(flow)
    armed = [s for s in senders if s._retx_timer is not None]
    assert armed, "expected at least one armed retransmission timer"

    flow.teardown()
    for sender in senders:
        assert sender._retx_timer is None

    # No RTO ever fires on the closed senders; the queue drains clean.
    sim.run_until(30.0)
    assert sim.pending_events == 0
    assert sum(host.late_cells for host in flow.hosts) > 0
