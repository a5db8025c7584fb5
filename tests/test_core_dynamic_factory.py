"""Unit tests for DynamicCircuitStart and the controller factory."""

from __future__ import annotations

import pytest

from repro.core.baselines import (
    FixedWindowController,
    JumpStartController,
    PlainSlowStartController,
    VegasStartController,
)
from repro.core.circuitstart import CircuitStartController
from repro.core.dynamic import DynamicCircuitStartController
from repro.core.factory import CONTROLLER_REGISTRY, controller_kinds, make_controller
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
# DynamicCircuitStart
# ----------------------------------------------------------------------


def make_settled_dynamic(**kwargs):
    """A dynamic controller past its initial start-up, window settled."""
    config = TransportConfig()
    c = DynamicCircuitStartController(config, **kwargs)
    hop = InFlight(c)
    now = full_round(hop, rtt=0.1, now=0.0)  # cwnd 4
    # Force exit via a uniformly delayed round.
    hop.send(c.cwnd_cells)
    for i in range(c.cwnd_cells):
        hop.feedback(0.5, now + i * 0.0001)
        if c.phase is not Phase.STARTUP:
            break
    assert c.phase is Phase.AVOIDANCE
    return hop, now + 1.0


def test_dynamic_validates_parameters():
    config = TransportConfig()
    with pytest.raises(ValueError):
        DynamicCircuitStartController(config, reentry_rounds=0)
    with pytest.raises(ValueError):
        DynamicCircuitStartController(config, cut_factor=1.0)
    with pytest.raises(ValueError):
        DynamicCircuitStartController(config, reentry_cooldown_rounds=-1)


def test_dynamic_reenters_after_consecutive_low_rounds():
    hop, now = make_settled_dynamic(reentry_rounds=3, reentry_cooldown_rounds=0)
    c = hop.controller
    for __ in range(3):
        now = full_round(hop, rtt=0.1, now=now)  # diff 0 < alpha
    assert c.phase is Phase.STARTUP
    assert c.reentries == 1


def test_dynamic_reentry_respects_cooldown():
    hop, now = make_settled_dynamic(reentry_rounds=2, reentry_cooldown_rounds=50)
    c = hop.controller
    for __ in range(2):
        now = full_round(hop, rtt=0.1, now=now)
    assert c.reentries == 1
    # Leave the re-entered startup immediately via a delayed round.
    hop.send(c.cwnd_cells)
    for i in range(c.cwnd_cells):
        hop.feedback(0.9, now + i * 0.0001)
        if c.phase is not Phase.STARTUP:
            break
    # More low rounds within the cooldown horizon: no second re-entry.
    for __ in range(4):
        now = full_round(hop, rtt=0.1, now=now + 1)
    assert c.reentries == 1


def test_dynamic_fast_cut_on_diff_explosion():
    # reentry disabled so growth rounds stay in avoidance.
    hop, now = make_settled_dynamic(cut_factor=2.0, reentry_rounds=100)
    c = hop.controller
    # Grow the window off the floor first.
    for __ in range(5):
        now = full_round(hop, rtt=0.1, now=now)
    assert c.cwnd_cells > 2
    # diff explodes past cut_factor * beta = 8.
    now = full_round(hop, rtt=1.5, now=now)
    assert c.fast_cuts >= 1
    assert c.phase is Phase.AVOIDANCE


def test_dynamic_normal_decrease_between_beta_and_cut():
    hop, now = make_settled_dynamic(cut_factor=10.0, reentry_rounds=100)
    c = hop.controller
    for __ in range(4):
        now = full_round(hop, rtt=0.1, now=now)
    before = c.cwnd_cells
    # diff just above beta but far below 10*beta: classic -1.
    window = c.cwnd_cells
    target_rtt = 0.1 * (1 + (5.0 / window))
    now = full_round(hop, rtt=target_rtt, now=now)
    assert c.cwnd_cells == before - 1
    assert c.fast_cuts == 0


def test_dynamic_reentered_startup_can_exit_again():
    hop, now = make_settled_dynamic(reentry_rounds=2, reentry_cooldown_rounds=0)
    c = hop.controller
    for __ in range(2):
        now = full_round(hop, rtt=0.1, now=now)
    assert c.phase is Phase.STARTUP
    hop.send(c.cwnd_cells)
    for i in range(c.cwnd_cells):
        hop.feedback(0.9, now + i * 0.0001)
        if c.phase is not Phase.STARTUP:
            break
    assert c.phase is Phase.AVOIDANCE


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------


def test_factory_kind_mapping():
    config = TransportConfig()
    assert isinstance(make_controller("circuitstart", config), CircuitStartController)
    assert isinstance(make_controller("with", config), CircuitStartController)
    assert isinstance(make_controller("without", config), VegasStartController)
    assert isinstance(make_controller("backtap", config), VegasStartController)
    assert isinstance(
        make_controller("plain-slowstart", config), PlainSlowStartController
    )
    assert isinstance(make_controller("fixed", config), FixedWindowController)
    assert isinstance(make_controller("jumpstart", config), JumpStartController)
    assert isinstance(make_controller("dynamic", config), DynamicCircuitStartController)


def test_factory_forwards_kwargs():
    config = TransportConfig()
    fixed = make_controller("fixed", config, window_cells=77)
    assert fixed.cwnd_cells == 77
    jump = make_controller("jumpstart", config, initial_cells=99)
    assert jump.cwnd_cells == 99


def test_factory_unknown_kind():
    with pytest.raises(ValueError, match="unknown controller kind"):
        make_controller("warp-speed", TransportConfig())


def test_controller_kinds_sorted_and_complete():
    kinds = controller_kinds()
    assert kinds == sorted(kinds)
    assert set(kinds) == set(CONTROLLER_REGISTRY)


def test_dynamic_is_a_circuitstart():
    """The extension subclasses the published algorithm."""
    assert issubclass(DynamicCircuitStartController, CircuitStartController)
