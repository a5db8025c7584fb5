"""Tests for per-hop loss recovery (go-back-N retransmission).

Loss is injected deterministically with a
:class:`~repro.net.faults.ScriptedLossModel` on specific interfaces of
a chain: its drop verdict loses the n-th packet the interface
transmits.  The reliable transport must deliver the exact payload
anyway, in order and without duplicates at the application.
"""

from __future__ import annotations

import pytest

from repro.net.faults import ScriptedLossModel, install_fault_model
from repro.sim.simulator import Simulator
from repro.transport.config import CELL_PAYLOAD, TransportConfig
from repro.transport.hop import HopBrokenError, HopSender
from repro.transport.rtt import RttEstimator
from repro.core.circuitstart import CircuitStartController

from helpers import make_chain_flow


RELIABLE = TransportConfig(reliable=True, rto_min=0.05, rto_initial=0.3)


def lossy_flow(sim, node_name, peer_name, drop_indices, payload_cells=40,
               config=RELIABLE):
    """A chain flow with scripted losses on one interface."""
    flow, topology, specs = make_chain_flow(
        sim, payload_bytes=payload_cells * CELL_PAYLOAD, config=config
    )
    iface = topology._interface_between(node_name, peer_name)
    install_fault_model(iface, ScriptedLossModel(drop_indices))
    return flow, topology


# ----------------------------------------------------------------------
# RTO estimation
# ----------------------------------------------------------------------


def test_rto_fallback_before_samples():
    est = RttEstimator()
    assert est.retransmission_timeout(fallback=1.0) == 1.0


def test_rto_tracks_srtt_plus_variance():
    est = RttEstimator()
    est.add_sample(0.1)
    # First sample: srtt = 0.1, rttvar = 0.05 -> rto = 0.3.
    assert est.retransmission_timeout(minimum=0.0) == pytest.approx(0.3)


def test_rto_clamps():
    est = RttEstimator()
    est.add_sample(0.001)
    assert est.retransmission_timeout(minimum=0.05) == 0.05
    est2 = RttEstimator()
    est2.add_sample(100.0)
    assert est2.retransmission_timeout(maximum=10.0) == 10.0


def test_rtt_variance_updates():
    est = RttEstimator()
    est.add_sample(0.1)
    est.add_sample(0.2)
    # rttvar = 0.05 + (0.1 - 0.05) / 4, srtt = 0.1 + 0.1 / 8.
    assert est.retransmission_timeout(minimum=0.0) == pytest.approx(
        0.1125 + 4 * 0.0625
    )


# ----------------------------------------------------------------------
# End-to-end recovery
# ----------------------------------------------------------------------


def test_data_cell_loss_recovered(sim):
    """Dropping a data cell on the first link stalls, times out, and
    the retransmission completes the transfer exactly."""
    flow, topo = lossy_flow(sim, "source", "relay1", drop_indices={5})
    sim.run()
    assert flow.sink.done
    assert flow.sink.received_bytes == flow.payload_bytes
    assert flow.hop_senders[0].retransmissions >= 1
    assert flow.hop_senders[0].timeouts >= 1


def test_feedback_loss_recovered(sim):
    """Dropping a feedback cell (reverse direction) is healed by the
    retransmit + duplicate re-ack path."""
    flow, topo = lossy_flow(sim, "relay1", "source", drop_indices={3})
    sim.run()
    assert flow.sink.done
    assert flow.sink.received_bytes == flow.payload_bytes


def test_burst_loss_recovered(sim):
    flow, topo = lossy_flow(
        sim, "relay2", "relay3", drop_indices={4, 5, 6, 7}, payload_cells=60
    )
    sim.run()
    assert flow.sink.done
    assert flow.sink.received_bytes == flow.payload_bytes


def test_no_duplicate_delivery_at_sink(sim):
    """Retransmissions never deliver a byte twice to the application."""
    offsets = []
    flow, topo = lossy_flow(sim, "source", "relay1", drop_indices={2, 9})
    original = flow.sink.on_cell

    def spy(cell):
        offsets.append(cell.offset)
        original(cell)

    flow.sink.on_cell = spy
    sim.run()
    assert flow.sink.done
    assert len(offsets) == len(set(offsets))
    assert offsets == sorted(offsets)


def test_midstream_feedback_loss_healed_by_cumulative_ack(sim):
    """A lost mid-stream feedback is covered by the next one (the
    receiver is in-order, so acks are cumulative): no retransmission."""
    flow, topo = lossy_flow(sim, "relay1", "source", drop_indices={2})
    sim.run()
    assert flow.sink.done
    assert flow.hop_senders[0].retransmissions == 0


def test_dedup_counters_increment(sim):
    """Losing the *last* feedback leaves nothing to cover it: the
    sender times out, retransmits, and the relay counts the duplicate."""
    flow, topo = lossy_flow(
        sim, "relay1", "source", drop_indices={39}, payload_cells=40
    )
    sim.run()
    assert flow.sink.done
    relay_state = flow.hosts[1].circuits[flow.spec.circuit_id]
    assert relay_state.duplicate_cells >= 1
    assert flow.hop_senders[0].retransmissions >= 1


def test_lossless_run_never_retransmits(sim):
    """With no loss, the reliability machinery stays silent."""
    flow, __ = lossy_flow(sim, "source", "relay1", drop_indices=set())
    sim.run()
    assert flow.sink.done
    for sender in flow.hop_senders:
        assert sender.retransmissions == 0
        assert sender.timeouts == 0


def test_unreliable_mode_stalls_on_loss(sim):
    """Without reliability the transfer cannot complete after a loss —
    the invariant that motivates the feature."""
    config = TransportConfig(reliable=False)
    flow, __ = lossy_flow(
        sim, "source", "relay1", drop_indices={5}, config=config
    )
    sim.run_until(10.0)
    assert not flow.sink.done


def test_hop_gives_up_after_max_rounds(sim):
    """A black-holed hop tears its circuit down instead of retrying
    forever — and the failure no longer unwinds ``Simulator.run()``
    (the TorHost wires the sender's ``on_broken`` hook)."""
    config = TransportConfig(
        reliable=True, rto_min=0.01, rto_initial=0.05,
        max_retransmission_rounds=3,
    )
    # Drop everything on the first link, forever.
    flow, topo = lossy_flow(
        sim, "source", "relay1", drop_indices=range(10_000), config=config
    )
    sim.run_until(60.0)  # must not raise
    assert not flow.sink.done
    assert flow.hop_senders[0].broken
    assert flow.hosts[0].circuits_broken == 1
    # The breaking host retired the circuit and the broken sender
    # released its window accounting on close.  (Its DESTROY toward the
    # successor is swallowed by the same black-holed link that broke
    # the hop — downstream hosts legitimately cannot learn.)
    assert flow.spec.circuit_id in flow.hosts[0].retired
    assert flow.spec.circuit_id not in flow.hosts[0].circuits
    assert flow.hop_senders[0].inflight_cells == 0


def test_bare_sender_without_hook_still_raises(sim):
    """The raise path survives for senders outside a TorHost (the
    pre-hook contract): no ``on_broken`` means the error propagates."""
    config = TransportConfig(
        reliable=True, rto_min=0.01, rto_initial=0.05,
        max_retransmission_rounds=2,
    )
    controller = CircuitStartController(config)
    sender = HopSender(sim, config, controller, lambda cell, token: None)

    class _Cell:
        size = 512
        hop_seq = -1

    sender.enqueue(_Cell())
    with pytest.raises(HopBrokenError):
        sim.run_until(60.0)


def test_midcircuit_break_propagates_destroy_upstream(sim):
    """A relay hop that breaks mid-circuit destroys toward the source:
    every upstream host retires the circuit (the downstream DESTROY is
    swallowed by the same black-holed link that broke the hop)."""
    config = TransportConfig(
        reliable=True, rto_min=0.01, rto_initial=0.05,
        max_retransmission_rounds=2,
    )
    flow, topo = lossy_flow(
        sim, "relay2", "relay3", drop_indices=range(10_000), config=config
    )
    sim.run_until(60.0)
    assert flow.hosts[2].circuits_broken == 1
    # relay2 broke; relay1 and the source learned via DESTROY.
    for host in flow.hosts[:3]:
        assert flow.spec.circuit_id in host.retired
        assert flow.spec.circuit_id not in host.circuits
    for sender in flow.hop_senders:
        assert sender.inflight_cells == 0


def test_broken_hop_reports_through_observer(sim):
    """`TorHost.on_circuit_broken` observes the failure after teardown."""
    config = TransportConfig(
        reliable=True, rto_min=0.01, rto_initial=0.05,
        max_retransmission_rounds=2,
    )
    flow, topo = lossy_flow(
        sim, "source", "relay1", drop_indices=range(10_000), config=config
    )
    seen = []
    flow.hosts[0].on_circuit_broken = lambda cid, err: seen.append((cid, err))
    sim.run_until(60.0)
    assert len(seen) == 1
    assert seen[0][0] == flow.spec.circuit_id
    assert isinstance(seen[0][1], HopBrokenError)


def test_karn_rule_skips_retransmitted_samples(sim):
    """RTT samples from retransmitted cells are excluded."""
    flow, __ = lossy_flow(sim, "source", "relay1", drop_indices={1})
    controller = flow.source_controller
    sim.run()
    assert flow.sink.done
    # Fewer samples than acknowledgments: the retransmitted cell's ack
    # carried no sample.
    assert controller.rtt.sample_count < flow.hop_senders[0].feedback_received


def test_reliable_mode_matches_lossless_performance(sim):
    """Reliability machinery must not distort the lossless dynamics."""
    fresh = Simulator()
    flow_plain, __, __s = make_chain_flow(
        fresh, payload_bytes=50 * CELL_PAYLOAD, config=TransportConfig()
    )
    fresh.run()
    sim2 = Simulator()
    flow_rel, __, __s2 = make_chain_flow(
        sim2, payload_bytes=50 * CELL_PAYLOAD, config=RELIABLE
    )
    sim2.run()
    assert flow_rel.sink.completed.value == pytest.approx(
        flow_plain.sink.completed.value, rel=1e-9
    )
