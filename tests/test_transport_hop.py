"""Unit tests for the hop sender (repro.transport.hop)."""

from __future__ import annotations

import pytest

from repro.core.circuitstart import CircuitStartController
from repro.transport.config import TransportConfig
from repro.transport.hop import HopSender


class StubCell:
    """Minimal object satisfying the hop sender's cell contract."""

    def __init__(self):
        self.size = 512
        self.hop_seq = -1


def make_sender(sim, config=None, controller=None):
    config = config or TransportConfig()
    controller = controller or CircuitStartController(config)
    wire = []

    def transmit(cell, token):
        wire.append((sim.now, cell, token))

    sender = HopSender(sim, config, controller, transmit, label="test")
    return sender, controller, wire


def test_initial_state(sim):
    sender, __, __w = make_sender(sim)
    assert sender.buffered_cells == 0 and sender.inflight_cells == 0
    assert sender.buffered_cells == 0
    assert sender.inflight_cells == 0


def test_enqueue_sends_up_to_window(sim):
    sender, controller, wire = make_sender(sim)
    for __ in range(5):
        sender.enqueue(StubCell())
    assert len(wire) == 2  # initial window
    assert sender.buffered_cells == 3
    assert sender.inflight_cells == 2 == controller.cwnd_cells  # window full


def test_hop_seq_assigned_sequentially(sim):
    sender, __, wire = make_sender(sim)
    for __i in range(2):
        sender.enqueue(StubCell())
    assert [cell.hop_seq for __, cell, __t in wire] == [0, 1]


def test_token_rides_to_transmit(sim):
    sender, __, wire = make_sender(sim)
    sender.enqueue(StubCell(), token="upstream-7")
    assert wire[0][2] == "upstream-7"


def test_feedback_opens_window(sim):
    sender, __, wire = make_sender(sim)
    for __i in range(5):
        sender.enqueue(StubCell())
    sim.run_until(0.1)
    sender.on_feedback(0)
    sender.on_feedback(1)
    # Window doubled to 4 after the full round; all remaining cells go out.
    assert len(wire) == 5
    assert sender.buffered_cells == 0


def test_feedback_measures_rtt(sim):
    config = TransportConfig()
    controller = CircuitStartController(config)
    sender, __, wire = make_sender(sim, config, controller)
    sender.enqueue(StubCell())
    sim.run_until(0.25)
    sender.on_feedback(0)
    assert controller.rtt.base_rtt == pytest.approx(0.25)


def test_unknown_feedback_counted_not_crashing(sim):
    sender, __, __w = make_sender(sim)
    sender.enqueue(StubCell())
    sender.on_feedback(99)
    assert sender.duplicate_feedback == 1


def test_repeated_feedback_counted(sim):
    sender, __, __w = make_sender(sim)
    sender.enqueue(StubCell())
    sender.on_feedback(0)
    sender.on_feedback(0)
    assert sender.duplicate_feedback == 1
    assert sender.feedback_received == 1


def test_counters(sim):
    sender, __, __w = make_sender(sim)
    for __i in range(3):
        sender.enqueue(StubCell())
    sender.on_feedback(0)
    assert sender.cells_sent == 3  # 2 initial + 1 released by feedback
    assert sender.feedback_received == 1
    assert sender.max_buffer_depth >= 1


def test_cwnd_cells_passthrough(sim):
    sender, controller, __w = make_sender(sim)
    assert sender.cwnd_cells == controller.cwnd_cells


def test_close_releases_window_accounting(sim):
    """Teardown with cells in flight drops them from the window: their
    feedback is never coming, and a window still counting them would
    admit nothing more."""
    sender, controller, wire = make_sender(sim)
    for __i in range(5):
        sender.enqueue(StubCell())
    assert sender.inflight_cells == 2  # initial window's worth in flight
    sender.close()
    assert sender.inflight_cells == 0
    assert sender.buffered_cells == 0 and sender.inflight_cells == 0
    sender.enqueue(StubCell())
    assert sender.inflight_cells == 1  # the window admits cells again


def test_close_releases_accounting_reliable_mode(sim):
    config = TransportConfig(reliable=True)
    controller = CircuitStartController(config)
    sender, controller, wire = make_sender(sim, config, controller)
    for __i in range(4):
        sender.enqueue(StubCell())
    sender.on_feedback(0)  # one acked, rest in flight
    assert sender.inflight_cells > 0
    sender.close()
    assert sender.inflight_cells == 0
    assert not sender._unacked


def test_window_never_violated(sim):
    """inflight never exceeds the controller's window at send time."""
    config = TransportConfig()
    controller = CircuitStartController(config)
    violations = []
    wire = []

    def transmit(cell, token):
        if sender.inflight_cells > controller.cwnd_cells:
            violations.append(sender.inflight_cells)
        wire.append(cell)

    sender = HopSender(sim, config, controller, transmit)
    for __ in range(100):
        sender.enqueue(StubCell())
    for seq in range(40):
        sim.run_until(sim.now + 0.01)
        sender.on_feedback(seq)
    assert violations == []


# ----------------------------------------------------------------------
# Go-back-N retransmission storms (feedback never arrives)
# ----------------------------------------------------------------------


def _storm_config(**overrides):
    """Reliable profile with a flat, fast RTO so storms are cheap."""
    defaults = dict(reliable=True, rto_initial=0.1, rto_min=0.05,
                    rto_max=0.1)
    defaults.update(overrides)
    return TransportConfig(**defaults)


def test_storm_counters_monotonic(sim):
    """Every counter is non-decreasing across a sustained RTO storm."""
    sender, __, wire = make_sender(
        sim, _storm_config(max_retransmission_rounds=50)
    )
    for __i in range(4):
        sender.enqueue(StubCell())
    previous = sender.counters()
    for step in range(1, 20):
        sim.run_until(step * 0.1)
        snapshot = sender.counters()
        for name, value in snapshot.items():
            assert value >= previous[name], (
                "counter %s went backwards (%r -> %r) at t=%.1f"
                % (name, previous[name], value, sim.now)
            )
        previous = snapshot
    assert previous["timeouts"] > 0
    assert previous["retransmissions"] > 0
    # Go-back-N: each timeout round resends every unacked cell.
    assert previous["retransmissions"] == \
        previous["timeouts"] * sender.inflight_cells
    assert len(wire) == sender.cells_sent + previous["retransmissions"]


def test_storm_exhausts_budget_into_broken_terminal_state(sim):
    """Exhausting the budget breaks the hop exactly once, via the hook."""
    sender, controller, __w = make_sender(
        sim, _storm_config(max_retransmission_rounds=2)
    )
    errors = []
    sender.on_broken = errors.append
    sender.enqueue(StubCell())
    sim.run_until(10.0)
    assert len(errors) == 1
    assert sender.broken
    assert sender.counters()["broken"] == 1
    # Two full retransmission rounds, then the breaking third timeout.
    assert sender.counters()["timeouts"] == 3
    assert sender.counters()["retransmissions"] == 2
    # The break closed the hop: nothing in flight, accounting released,
    # and the terminal state is stable under further simulated time.
    assert sender.buffered_cells == 0 and sender.inflight_cells == 0
    assert sender.inflight_cells == 0
    terminal = sender.counters()
    sim.run_until(60.0)
    assert sender.counters() == terminal


def test_storm_counters_survive_close(sim):
    """Teardown mid-storm keeps the tallies; only live state is dropped."""
    sender, controller, __w = make_sender(sim, _storm_config())
    for __i in range(4):
        sender.enqueue(StubCell())
    sim.run_until(0.35)  # a few timeout rounds into the storm
    before = sender.counters()
    assert before["timeouts"] > 0
    sender.close()
    after = sender.counters()
    assert after == before  # close() releases state, never counters
    assert not sender.broken
    assert sender.buffered_cells == 0 and sender.inflight_cells == 0
    assert sender.inflight_cells == 0
    # The cancelled timer must leave nothing behind: no counter can
    # move once the circuit is gone.
    sim.run_until(30.0)
    assert sender.counters() == after


# ----------------------------------------------------------------------
# When the retransmission timer fires, read off the wire
# ----------------------------------------------------------------------
#
# Binary-fraction times and RTOs keep every deadline exact.  No
# feedback carries an RTT sample here, so the base RTO is rto_initial.


def _rto_config():
    return TransportConfig(reliable=True, rto_initial=0.25, rto_min=0.0625,
                           rto_max=1.0, max_retransmission_rounds=12)


def _wire_times(wire):
    return [time for time, __c, __t in wire]


def test_first_timeout_fires_one_rto_after_the_last_send(sim):
    sender, __, wire = make_sender(sim, _rto_config())
    sender.enqueue(StubCell())
    sim.run_until(0.125)
    sender.enqueue(StubCell())  # pushes the deadline back to 0.375
    sim.run_until(0.5)
    # Go-back-N resends both cells when the timer fires.
    assert _wire_times(wire) == [0.0, 0.125, 0.375, 0.375]


def test_consecutive_timeouts_back_off_up_to_rto_max(sim):
    sender, __, wire = make_sender(sim, _rto_config())
    sender.enqueue(StubCell())
    sim.run_until(3.0)
    # RTO 0.25, then x2 per timeout: 0.5, 1.0, then capped at 1.0.
    assert _wire_times(wire) == [0.0, 0.25, 0.75, 1.75, 2.75]
    assert sender.timeouts == 4


def test_feedback_after_a_backoff_brings_the_deadline_forward(sim):
    sender, __, wire = make_sender(sim, _rto_config())
    sender.enqueue(StubCell())
    sender.enqueue(StubCell())
    sim.run_until(0.3125)  # one timeout at 0.25: the RTO backs off to 0.5
    sender.on_feedback(0)  # progress resets the backoff: RTO 0.25 again
    sim.run_until(0.7)
    # Cell 1 times out at 0.3125 + 0.25, before the 0.75 of the backoff.
    assert _wire_times(wire) == [0.0, 0.0, 0.25, 0.25, 0.5625]
