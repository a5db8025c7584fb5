"""A pin of what the link layer counts, per kind, on two small runs.

The goldens pin lossless events and results, and
``test_reliable_event_pin`` a faulted run's events and transport
counters, but neither reads the link layer's own books: packets and
bytes each interface put on a wire, how deep its backlog got, packets
each node took off one.  This pins a sha256 of
:func:`helpers.link_counters` for both kinds of
``test_percell_budget``'s ``lossless_scenario()`` and
``reliable_scenario()``.  A change to how ``repro.net`` keeps those
counters must leave every digest alone.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from helpers import link_counters
from test_percell_budget import lossless_scenario, reliable_scenario

from repro.net.faults import ScriptedLossModel, install_fault_model
from repro.scenario import engine, plan_scenario, run_planned
from repro.scenario.cache import PlanCache

SCENARIOS = {"lossless": lossless_scenario, "reliable": reliable_scenario}

LINK_COUNTERS_SHA256 = {
    ("lossless", "with"): (
        "bf30dab7db696d9edf2b59b4f6a49ac2292bfdb8f4496f9ec794e4820445f3ec"
    ),
    ("lossless", "without"): (
        "cd634e8f45a102e3bbbe3efcfa41bac89e5876d0602d6dc6a3d3951aba1c6a2c"
    ),
    ("reliable", "with"): (
        "a64ee8732391ab9897d6eeed6c4a67c48d19821910e47eac8f54f3bbf3437343"
    ),
    ("reliable", "without"): (
        "88ee1ceea695d39fa3b5fcffb9e0b087739943d7835a04f7331878eef9cdf2cf"
    ),
}


def counter_digests(scenario, tamper=None):
    """kind -> sha256 of :func:`link_counters` after one replay of
    *scenario* with that kind.  *tamper*, if given, sees each network
    right after it is built."""
    plan = plan_scenario(scenario, cache=PlanCache())
    networks = []
    instantiate = engine.instantiate_network

    def remember(*args, **kwargs):
        network = instantiate(*args, **kwargs)
        if tamper is not None:
            tamper(plan, network)
        networks.append(network)
        return network

    digests = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "instantiate_network", remember)
        for kind in scenario.kinds:
            run_planned(plan, kinds=[kind])
            text = json.dumps(link_counters(networks[-1].topology))
            digests[kind] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_link_counters_are_pinned(name):
    digests = counter_digests(SCENARIOS[name]())
    assert {(name, kind): digest for kind, digest in digests.items()} == {
        key: digest for key, digest in LINK_COUNTERS_SHA256.items() if key[0] == name
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
    for kind, digest in digests.items():
        assert digest != LINK_COUNTERS_SHA256["reliable", kind]
