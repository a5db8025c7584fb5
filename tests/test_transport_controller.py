"""Unit tests for the window-controller base machinery.

Uses CircuitStartController (the simplest concrete subclass) to
exercise the shared round bookkeeping and Vegas avoidance, plus a
recording stub where phase hooks must be isolated.
"""

from __future__ import annotations

import pytest

from repro.core.circuitstart import CircuitStartController
from repro.transport.config import TransportConfig
from repro.transport.controller import Phase, WindowController

from helpers import InFlight


def counted(config=None):
    """A CircuitStart controller and the count of its hop's cells in flight."""
    return InFlight(CircuitStartController(config or TransportConfig()))


def feed(hop, count, rtt, start=0.0, spacing=0.001):
    """Deliver *count* feedback events with constant *rtt*."""
    now = start
    for __ in range(count):
        hop.feedback(rtt, now)
        now += spacing
    return now


def test_initial_state():
    c = CircuitStartController(TransportConfig())
    assert c.cwnd_cells == 2
    assert c.phase is Phase.STARTUP
    assert c.startup_exit_time is None


def test_full_round_doubles_during_startup():
    hop = counted()
    c = hop.controller
    hop.send(2)
    feed(hop, 2, rtt=0.1)
    assert c.cwnd_cells == 4
    assert c.round_index == 1


def test_consecutive_rounds_keep_doubling():
    hop = counted()
    c = hop.controller
    for expected in (4, 8, 16):
        window = c.cwnd_cells
        hop.send(window)
        feed(hop, window, rtt=0.1)
        assert c.cwnd_cells == expected


def test_partial_round_does_not_double():
    """A round that drains (nothing left in flight) must not grow the window."""
    hop = counted()
    c = hop.controller
    hop.send(1)  # app-limited: only one cell available
    hop.feedback(0.1, 0.1)
    assert c.cwnd_cells == 2  # unchanged
    assert c.round_index == 1  # but the round did turn over


def test_max_cwnd_clamps_doubling():
    config = TransportConfig(max_cwnd_cells=3)
    hop = counted(config)
    c = hop.controller
    hop.send(2)
    feed(hop, 2, rtt=0.1)
    assert c.cwnd_cells == 3


def test_cwnd_listener_called_on_change():
    hop = counted()
    c = hop.controller
    changes = []
    c.bind_cwnd_listener(lambda now, cwnd: changes.append((now, cwnd)))
    hop.send(2)
    feed(hop, 2, rtt=0.1, start=1.0)
    assert changes and changes[-1][1] == 4


def test_events_log_doubling():
    hop = counted()
    c = hop.controller
    changes = []
    c.bind_cwnd_listener(lambda now, cwnd: changes.append((now, cwnd)))
    hop.send(2)
    end = feed(hop, 2, rtt=0.1)
    # One change, 2 -> 4, when the round's last feedback arrived.
    assert changes == [(end - 0.001, 4)]


def test_vegas_increase_on_low_diff():
    hop = counted()
    c = hop.controller
    c.phase = Phase.AVOIDANCE
    hop.send(2)
    feed(hop, 2, rtt=0.1)  # diff == 0 < alpha on a full round
    assert c.cwnd_cells == 3


def test_vegas_decrease_on_high_diff():
    config = TransportConfig()
    hop = counted(config)
    c = hop.controller
    c.phase = Phase.AVOIDANCE
    # Establish base rtt = 0.1 on the first (partial) round.
    hop.send(1)
    hop.feedback(0.1, 0.0)
    # Now a full round with badly inflated rtt: diff = 2*(3-1) = 4 > beta? equal..
    hop.send(2)
    feed(hop, 2, rtt=0.5, start=0.1)  # diff = 2*(5-1) = 8 > beta=4
    assert c.cwnd_cells == 2  # clamped at min_cwnd


def test_vegas_hold_inside_band():
    config = TransportConfig(vegas_alpha=1.0, vegas_beta=10.0)
    hop = counted(config)
    c = hop.controller
    c.phase = Phase.AVOIDANCE
    hop.send(1)
    hop.feedback(0.1, 0.0)
    hop.send(2)
    feed(hop, 2, rtt=0.2, start=0.1)  # diff = 2 within [1, 10]
    assert c.cwnd_cells == 2


def test_vegas_increase_requires_full_round():
    hop = counted()
    c = hop.controller
    c.phase = Phase.AVOIDANCE
    hop.send(1)  # partial round
    hop.feedback(0.1, 0.0)
    assert c.cwnd_cells == 2  # no growth without a full round


def test_cwnd_never_below_min():
    config = TransportConfig(min_cwnd_cells=2)
    hop = counted(config)
    c = hop.controller
    c.phase = Phase.AVOIDANCE
    for round_index in range(5):
        hop.send(c.cwnd_cells)
        feed(hop, c.cwnd_cells, rtt=1.0, start=float(round_index))
    assert c.cwnd_cells >= 2


def test_acked_in_last_rtt_counts_recent_feedback():
    # With one compensation window, acked_per_rtt counts the feedback
    # of the trailing RTT only.
    hop = counted(TransportConfig(compensation_window_rtts=1))
    c = hop.controller
    hop.send(2)
    hop.feedback(0.1, 10.0)
    hop.feedback(0.1, 10.05)
    # base_rtt = 0.1; both arrivals within the last 0.1 s of t=10.05.
    assert c.acked_per_rtt(10.05) == 2
    # Much later, the window is empty.
    assert c.acked_per_rtt(20.0) == 0


def test_acked_per_rtt_averages_windows():
    config = TransportConfig(compensation_window_rtts=2)
    hop = counted(config)
    c = hop.controller
    hop.send(10)
    # base 0.1; deliver 4 feedbacks within the last 0.2 s.
    for t in (9.85, 9.90, 9.95, 10.0):
        hop.feedback(0.1, t)
    assert c.acked_per_rtt(10.0) == 2  # 4 over two windows


def test_abstract_hooks_raise():
    c = WindowController(TransportConfig())
    with pytest.raises(NotImplementedError):
        c._startup_feedback(0.1, 0.0)
    with pytest.raises(NotImplementedError):
        c._startup_round_complete(0.0, True)
