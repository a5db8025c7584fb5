"""Unit tests for the one-shot Waiter (repro.sim.process)."""

from __future__ import annotations

import pytest

from repro.sim.errors import SimulationError
from repro.sim.process import Waiter


def test_subscribe_then_trigger_delivers_value(sim):
    gate = Waiter(sim)
    stamps = []
    gate.subscribe(lambda value: stamps.append((sim.now, value)))
    sim.schedule(3.0, gate.trigger, "opened")
    sim.run()
    assert stamps == [(3.0, "opened")]
    assert gate.triggered and gate.value == "opened"


def test_subscribe_after_trigger_is_latched(sim):
    gate = Waiter(sim)
    gate.trigger("early")
    stamps = []
    gate.subscribe(lambda value: stamps.append((sim.now, value)))
    sim.run()
    assert stamps == [(0.0, "early")]


@pytest.mark.parametrize("subscribe_first", [True, False])
def test_delivery_is_never_synchronous(sim, subscribe_first):
    """Callbacks run via call_soon: after the triggering event's own work."""
    gate = Waiter(sim)
    seen = []
    if subscribe_first:
        gate.subscribe(seen.append)
    gate.trigger("v")
    if not subscribe_first:
        gate.subscribe(seen.append)
    assert seen == []
    sim.run()
    assert seen == ["v"]


def test_subscribers_fire_in_subscription_order(sim):
    gate = Waiter(sim)
    woken = []
    for name in "abc":
        gate.subscribe(lambda value, name=name: woken.append(name))
    sim.schedule(1.0, gate.trigger)
    sim.run()
    assert woken == ["a", "b", "c"]


def test_waiter_double_trigger_raises(sim):
    gate = Waiter(sim)
    gate.trigger()
    with pytest.raises(SimulationError):
        gate.trigger()
