"""Unit tests for the baseline controllers (repro.core.baselines)."""

from __future__ import annotations

import pytest

from repro.core.baselines import (
    FixedWindowController,
    JumpStartController,
    PlainSlowStartController,
    VegasStartController,
)
from repro.transport.config import TransportConfig
from repro.transport.controller import Phase

from helpers import InFlight


def full_round(hop, rtt, now):
    window = hop.controller.cwnd_cells
    hop.send(window)
    for i in range(window):
        hop.feedback(rtt, now + i * 0.0001)
    return now + rtt


# ----------------------------------------------------------------------
# VegasStart ("without CircuitStart" — BackTap's native behaviour)
# ----------------------------------------------------------------------


def test_vegas_start_begins_in_avoidance():
    c = VegasStartController(TransportConfig())
    assert c.phase is Phase.AVOIDANCE
    assert c.cwnd_cells == 2


def test_vegas_start_grows_one_cell_per_round():
    c = VegasStartController(TransportConfig())
    hop = InFlight(c)
    now = 0.0
    for expected in (3, 4, 5):
        now = full_round(hop, rtt=0.1, now=now)
        assert c.cwnd_cells == expected


def test_vegas_start_is_much_slower_than_doubling():
    """Reaching 32 cells takes ~30 rounds instead of ~4."""
    c = VegasStartController(TransportConfig())
    hop = InFlight(c)
    now, rounds = 0.0, 0
    while c.cwnd_cells < 32:
        now = full_round(hop, rtt=0.1, now=now)
        rounds += 1
    assert rounds == 30


def test_vegas_start_shrinks_on_queueing():
    c = VegasStartController(TransportConfig())
    hop = InFlight(c)
    now = full_round(hop, rtt=0.1, now=0.0)  # base established, cwnd 3
    now = full_round(hop, rtt=0.1, now=now)  # cwnd 4
    full_round(hop, rtt=0.5, now=now)  # diff = 4*4 = 16 > beta
    assert c.cwnd_cells == 3


# ----------------------------------------------------------------------
# PlainSlowStart (TCP-style: +1 per feedback, halve on exit)
# ----------------------------------------------------------------------


def test_plain_slowstart_grows_per_feedback():
    c = PlainSlowStartController(TransportConfig())
    hop = InFlight(c)
    hop.send(2)
    hop.feedback(0.1, 0.1)
    assert c.cwnd_cells == 3  # grew immediately, not at round end


def test_plain_slowstart_halves_on_exit():
    c = PlainSlowStartController(TransportConfig())
    hop = InFlight(c)
    now = 0.0
    for __ in range(3):
        now = full_round(hop, rtt=0.1, now=now)
    window_before = c.cwnd_cells
    hop.send(window_before)
    for i in range(window_before):
        hop.feedback(0.5, now + i * 0.0001)
        if c.phase is not Phase.STARTUP:
            break
    assert c.phase is not Phase.STARTUP
    assert c.cwnd_cells == window_before // 2


def test_plain_slowstart_exit_logged():
    c = PlainSlowStartController(TransportConfig())
    hop = InFlight(c)
    now = full_round(hop, rtt=0.1, now=0.0)
    hop.send(c.cwnd_cells)
    for i in range(8):
        cwnd_before = c.cwnd_cells
        exit_time = now + i * 0.0001
        hop.feedback(2.0, exit_time)
        if c.phase is not Phase.STARTUP:
            break
    assert c.startup_exit_time == exit_time
    assert c.cwnd_cells == max(c.config.min_cwnd_cells, cwnd_before // 2)


# ----------------------------------------------------------------------
# FixedWindow
# ----------------------------------------------------------------------


def test_fixed_window_holds_forever():
    c = FixedWindowController(TransportConfig(), window_cells=50)
    hop = InFlight(c)
    assert c.cwnd_cells == 50
    now = 0.0
    for rtt in (0.1, 0.5, 0.05, 1.0):
        now = full_round(hop, rtt=rtt, now=now)
    assert c.cwnd_cells == 50


def test_fixed_window_validates():
    with pytest.raises(ValueError):
        FixedWindowController(TransportConfig(), window_cells=0)


def test_fixed_window_respects_max():
    config = TransportConfig(max_cwnd_cells=10)
    c = FixedWindowController(config, window_cells=100)
    assert c.cwnd_cells == 10


# ----------------------------------------------------------------------
# JumpStart
# ----------------------------------------------------------------------


def test_jumpstart_begins_large_in_avoidance():
    c = JumpStartController(TransportConfig(), initial_cells=128)
    assert c.cwnd_cells == 128
    assert c.phase is Phase.AVOIDANCE


def test_jumpstart_validates():
    with pytest.raises(ValueError):
        JumpStartController(TransportConfig(), initial_cells=0)


def test_jumpstart_recovers_slowly():
    """Overshoot recovery is one cell per round — the multi-hop problem."""
    c = JumpStartController(TransportConfig(), initial_cells=20)
    hop = InFlight(c)
    now = full_round(hop, rtt=0.1, now=0.0)  # establishes base; +1 (diff 0)
    assert c.cwnd_cells == 21
    for __ in range(3):
        now = full_round(hop, rtt=0.8, now=now)  # heavy queueing: -1 each
    assert c.cwnd_cells == 18
