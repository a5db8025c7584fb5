"""A pin of what the link layer counts, per kind, on two small runs.

The goldens pin lossless events and results, and
``test_reliable_event_pin`` a faulted run's events and transport
counters, but neither reads the link layer's own books: packets and
bytes each interface put on a wire, how deep its backlog got, packets
each node took off one.  This pins a sha256 of
:func:`helpers.link_counters` for both kinds of
``test_percell_budget``'s ``lossless_scenario()`` and
``reliable_scenario()``, and, on the reliable one, whose relay churn
black-holes packets, what each node dropped while it was down.  A
change to how ``repro.net`` keeps those counters must leave every
digest alone.
"""

from __future__ import annotations

import functools
import json

import pytest
from helpers import link_counters, network_spy, pins, text_digest
from test_percell_budget import lossless_scenario, reliable_scenario

from repro.net.faults import ScriptedLossModel, install_fault_model
from repro.scenario import plan_scenario, run_planned
from repro.scenario.cache import PlanCache

SCENARIOS = {"lossless": lossless_scenario, "reliable": reliable_scenario}


def dropped_down(topology):
    """Per node ``(name, packets_dropped_down)``: packets that reached it
    while it was down."""
    return [(node.name, node.packets_dropped_down) for node in topology.nodes.values()]


def counter_digests(scenario, tamper=None, read=link_counters):
    """kind -> sha256 of what *read* finds on the topology after one
    replay of *scenario* with that kind.  *tamper*, if given, sees the
    plan and each network right after it is built."""
    plan = plan_scenario(scenario, cache=PlanCache())
    if tamper is not None:
        tamper = functools.partial(tamper, plan)
    digests = {}
    with network_spy(tamper) as networks:
        for kind in scenario.kinds:
            run_planned(plan, kinds=[kind])
            text = json.dumps(read(networks[-1].topology))
            digests[kind] = text_digest(text)
    return digests


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_link_counters_are_pinned(name):
    digests = counter_digests(SCENARIOS[name]())
    assert {"%s %s" % (name, kind): digest for kind, digest in digests.items()} == {
        key: digest
        for key, digest in pins("link-counters").items()
        if key.split()[0] == name
    }


def test_the_pin_sees_one_dropped_packet():
    # Teeth: one more lost packet, on the hub's egress toward the
    # bottleneck relay, moves the counters of both kinds.
    def drop_first(plan, network):
        hub = network.topology.node(network.hub_name)
        install_fault_model(
            hub.interface_to(plan.bottleneck_relay), ScriptedLossModel({0})
        )

    digests = counter_digests(reliable_scenario(), tamper=drop_first)
    pinned = pins("link-counters")
    for kind, digest in digests.items():
        assert digest != pinned["reliable " + kind]


def test_dropped_down_counts_are_pinned():
    digests = counter_digests(reliable_scenario(), read=dropped_down)
    assert {"reliable " + kind: digest for kind, digest in digests.items()} == pins(
        "dropped-down"
    )


def test_the_drop_pin_sees_one_more_dead_relay():
    # Teeth: the bottleneck relay down from the start black-holes what
    # reaches it, in both kinds.
    def kill_bottleneck(plan, network):
        network.topology.node(plan.bottleneck_relay).up = False

    digests = counter_digests(
        reliable_scenario(), tamper=kill_bottleneck, read=dropped_down
    )
    pinned = pins("dropped-down")
    for kind, digest in digests.items():
        assert digest != pinned["reliable " + kind]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_hub_took_in_what_its_interfaces_took(name):
    """The hub originates nothing and drops nothing (the fault plane
    kills relays), so every packet it took off a link is one its
    interfaces sent or still hold."""
    scenario = SCENARIOS[name]()
    plan = plan_scenario(scenario, cache=PlanCache())
    with network_spy() as networks:
        for kind in scenario.kinds:
            run_planned(plan, kinds=[kind])
            hub = networks[-1].topology.node(networks[-1].hub_name)
            took = sum(i.packets_sent + i.backlog_packets for i in hub.interfaces)
            assert hub.packets_received == took > 1000
            assert hub.packets_dropped_down == hub._handler.swallowed == 0
