"""Unit tests for the CircuitStart controller (repro.core.circuitstart)."""

from __future__ import annotations


from repro.core.circuitstart import CircuitStartController
from repro.transport.config import TransportConfig
from repro.transport.controller import Phase

from helpers import InFlight


def run_clean_rounds(hop, rounds, rtt=0.1):
    """Drive *rounds* congestion-free slow-start rounds."""
    controller = hop.controller
    now = 0.0
    for __ in range(rounds):
        window = controller.cwnd_cells
        hop.send(window)
        for __c in range(window):
            now += 0.0001
            hop.feedback(rtt, now)
        now += rtt
    return now


def test_doubles_per_clean_round():
    c = CircuitStartController(TransportConfig())
    hop = InFlight(c)
    run_clean_rounds(hop, 3)
    assert c.cwnd_cells == 16
    assert c.phase is Phase.STARTUP


def test_gamma_exit_on_standing_queue():
    """A uniformly delayed round (min inflated) exits start-up."""
    config = TransportConfig()
    c = CircuitStartController(config)
    hop = InFlight(c)
    now = run_clean_rounds(hop, 2, rtt=0.1)  # cwnd 8, base 0.1
    window = c.cwnd_cells
    hop.send(window)
    # Entire train delayed 2x: diff = 8 * (2 - 1) = 8 > gamma = 4.
    for __ in range(window):
        now += 0.0001
        hop.feedback(0.2, now)
        if c.phase is not Phase.STARTUP:
            break
    assert c.phase is not Phase.STARTUP
    assert c.startup_exit_time is not None
    assert c.exit_diff > config.gamma


def test_single_sample_escape_hatch():
    """One massively delayed sample (> factor*gamma) exits immediately."""
    config = TransportConfig(sample_gamma_factor=4.0)
    c = CircuitStartController(config)
    hop = InFlight(c)
    now = run_clean_rounds(hop, 2, rtt=0.1)
    window = c.cwnd_cells  # 8
    hop.send(window)
    hop.feedback(0.1, now)  # keeps the round min low
    # diff_sample = 8 * (0.4/0.1 - 1) = 24 > 16 = 4 * gamma.
    hop.feedback(0.4, now + 0.001)
    assert c.phase is not Phase.STARTUP


def test_moderate_single_sample_does_not_exit():
    """A transiently delayed cell below the escape threshold is tolerated."""
    config = TransportConfig(sample_gamma_factor=4.0)
    c = CircuitStartController(config)
    hop = InFlight(c)
    now = run_clean_rounds(hop, 2, rtt=0.1)
    hop.send(c.cwnd_cells)
    hop.feedback(0.1, now)
    # diff_sample = 8 * 0.5 = 4; diff_round(min) = 0 -> stay in startup.
    hop.feedback(0.15, now + 0.001)
    assert c.phase is Phase.STARTUP


def test_compensation_acked_counts_last_rtt():
    config = TransportConfig(compensation_window_rtts=1)
    c = CircuitStartController(config)
    hop = InFlight(c)
    now = run_clean_rounds(hop, 3, rtt=0.1)  # cwnd 16, base 0.1
    hop.send(16)
    # Deliver 6 feedbacks within one base rtt, then the delayed trigger.
    for i in range(6):
        hop.feedback(0.1, now + i * 0.01)
    hop.feedback(0.5, now + 0.06)
    assert c.phase is not Phase.STARTUP
    # 7 feedback arrivals (6 + trigger) within the trailing 0.1 s.
    assert c.cwnd_cells == 7


def test_compensation_never_exceeds_pre_exit_cwnd():
    config = TransportConfig(compensation_window_rtts=1)
    c = CircuitStartController(config)
    hop = InFlight(c)
    now = run_clean_rounds(hop, 1, rtt=0.1)  # cwnd 4
    hop.send(4)
    # Burst of feedback inside one RTT window larger than cwnd cannot
    # push the compensated window above the pre-exit cwnd.
    for i in range(3):
        hop.feedback(0.1, now + i * 0.001)
    hop.feedback(1.0, now + 0.004)
    assert c.phase is not Phase.STARTUP
    assert c.cwnd_cells <= (c.cwnd_before_exit or 0)


def test_compensation_halve_mode():
    config = TransportConfig(compensation="halve")
    c = CircuitStartController(config)
    hop = InFlight(c)
    now = run_clean_rounds(hop, 3, rtt=0.1)  # cwnd 16
    hop.send(16)
    for i in range(16):
        hop.feedback(0.5, now + i * 0.001)
        if c.phase is not Phase.STARTUP:
            break
    assert c.phase is not Phase.STARTUP
    assert c.cwnd_cells == 8


def test_compensation_none_mode():
    config = TransportConfig(compensation="none")
    c = CircuitStartController(config)
    hop = InFlight(c)
    now = run_clean_rounds(hop, 3, rtt=0.1)
    hop.send(16)
    for i in range(16):
        hop.feedback(0.5, now + i * 0.001)
        if c.phase is not Phase.STARTUP:
            break
    assert c.phase is not Phase.STARTUP
    assert c.cwnd_cells == 16


def test_compensation_floors_at_min_cwnd():
    config = TransportConfig(compensation_window_rtts=1, min_cwnd_cells=2)
    c = CircuitStartController(config)
    hop = InFlight(c)
    now = run_clean_rounds(hop, 2, rtt=0.1)
    hop.send(8)
    # Single delayed feedback and nothing else recent.
    hop.feedback(0.9, now + 5.0)
    assert c.phase is not Phase.STARTUP
    assert c.cwnd_cells >= config.min_cwnd_cells


def test_exit_records_diagnostics():
    c = CircuitStartController(TransportConfig())
    hop = InFlight(c)
    now = run_clean_rounds(hop, 2, rtt=0.1)
    changes = []
    c.bind_cwnd_listener(lambda t, cwnd: changes.append((t, cwnd)))
    hop.send(8)
    for i in range(8):
        exit_time = now + i * 0.001
        hop.feedback(0.3, exit_time)
        if c.phase is not Phase.STARTUP:
            break
    assert c.cwnd_before_exit == 8
    assert c.exit_diff is not None
    assert c.startup_exit_time == exit_time
    # The overshoot compensation cut the window at the exit itself.
    assert changes == [(exit_time, c.cwnd_cells)]
    assert c.cwnd_cells < c.cwnd_before_exit


def test_after_exit_vegas_runs():
    c = CircuitStartController(TransportConfig())
    hop = InFlight(c)
    now = run_clean_rounds(hop, 2, rtt=0.1)
    hop.send(8)
    for i in range(8):
        hop.feedback(0.3, now + i * 0.001)
    assert c.phase is Phase.AVOIDANCE
    before = c.cwnd_cells
    # A clean full round at base rtt now triggers a Vegas increase.
    now += 1.0
    hop.send(before)
    for i in range(before):
        hop.feedback(0.1, now + i * 0.0001)
    assert c.cwnd_cells == before + 1


def test_no_exit_without_queue():
    """Feedback always at base rtt: start-up continues indefinitely."""
    config = TransportConfig(max_cwnd_cells=64)
    c = CircuitStartController(config)
    hop = InFlight(c)
    run_clean_rounds(hop, 10, rtt=0.1)
    assert c.phase is Phase.STARTUP
    assert c.cwnd_cells == 64  # clamped, still ramping
