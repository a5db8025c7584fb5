"""Unit tests for nodes, routing and topology builders (repro.net)."""

from __future__ import annotations

import pytest

from repro.net.node import ForwardingHandler
from repro.net.packet import Packet
from repro.net.topology import LinkSpec, Topology, build_chain, build_star
from repro.scenario.netgen import (
    NetworkConfig,
    instantiate_network,
    plan_network,
)
from repro.sim.rand import RandomStreams
from repro.units import mbit_per_second, milliseconds


SPEC = LinkSpec(mbit_per_second(16), milliseconds(5))


def collector():
    received = []

    class Collector:
        def handle_packet(self, packet, node):
            received.append(packet)

    return Collector(), received


def test_add_node_and_lookup(sim):
    topo = Topology(sim)
    node = topo.add_node("a")
    assert topo.node("a") is node


def test_duplicate_node_rejected(sim):
    topo = Topology(sim)
    topo.add_node("a")
    with pytest.raises(ValueError):
        topo.add_node("a")


def test_unknown_node_lookup(sim):
    topo = Topology(sim)
    with pytest.raises(KeyError):
        topo.node("ghost")


def test_duplicate_link_rejected(sim):
    topo = Topology(sim)
    topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b", SPEC)
    with pytest.raises(ValueError):
        topo.connect("a", "b", SPEC)


def test_connect_creates_duplex_interfaces(sim):
    topo = Topology(sim)
    topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b", SPEC)
    assert len(topo.node("a").interfaces) == 1
    assert len(topo.node("b").interfaces) == 1


def test_chain_routes_end_to_end(sim):
    topo = build_chain(sim, ["a", "b", "c"], [SPEC, SPEC])
    handler, received = collector()
    topo.node("c").set_handler(handler)
    topo.node("a").send(Packet(100, dst="c"))
    sim.run()
    assert len(received) == 1
    # Two links traversed: b took it off one, c off the other.
    assert [topo.node(n).packets_received for n in "abc"] == [0, 1, 1]


def test_chain_length_validation(sim):
    with pytest.raises(ValueError):
        build_chain(sim, ["a"], [])
    with pytest.raises(ValueError):
        build_chain(sim, ["a", "b", "c"], [SPEC])


def test_chain_path_helpers(sim):
    slow = LinkSpec(mbit_per_second(2), milliseconds(5))
    topo = build_chain(sim, ["a", "b", "c"], [SPEC, slow])
    assert topo.path("a", "c") == ["a", "b", "c"]
    assert [topo._interface_between(a, b).link.rate for a, b in ("ab", "bc")] == [
        SPEC.rate, slow.rate,
    ]


def test_path_to_unknown_or_unreachable_node_names_both_ends(sim):
    topo = build_chain(sim, ["a", "b"], [SPEC])
    topo.add_node("c")
    topo.add_node("d")
    topo.connect("c", "d", SPEC)  # a second, disconnected component
    for src, dst in (("a", "ghost"), ("ghost", "a"), ("a", "d"), ("c", "b")):
        with pytest.raises(KeyError, match="no path from %r to %r" % (src, dst)):
            topo.path(src, dst)
    assert topo.path("c", "d") == ["c", "d"] and topo.path("a", "a") == ["a"]


def test_interface_between_is_a_lookup(sim):
    topo = build_star(sim, "hub", {"x": SPEC, "y": SPEC})
    assert topo._interface_between("hub", "y") is topo.node("hub").interfaces[1]
    assert topo._interface_between("y", "hub") is topo.node("y").interfaces[0]
    with pytest.raises(KeyError, match="no interface from x to y"):
        topo._interface_between("x", "y")


def test_star_routes_leaf_to_leaf_via_hub(sim):
    topo = build_star(sim, "hub", {"x": SPEC, "y": SPEC})
    handler, received = collector()
    topo.node("y").set_handler(handler)
    topo.node("x").send(Packet(100, dst="y"))
    sim.run()
    assert len(received) == 1
    assert [topo.node(n).packets_received for n in ("x", "hub", "y")] == [0, 1, 1]
    assert topo.path("x", "y") == ["x", "hub", "y"]


def test_star_routes_equal_the_searched_ones(sim):
    """build_star sets its routes directly (a table at the hub, one
    default route per leaf); build_routes() (Dijkstra over the graph)
    must send no ordered pair anywhere different on a generated star."""
    config = NetworkConfig(relay_count=9, client_count=5, server_count=4)
    topo = instantiate_network(plan_network(config, RandomStreams(11)), sim).topology

    def egresses():
        return {
            (src, dst): node.interface_to(dst)
            for src, node in topo.nodes.items()
            for dst in topo.nodes
            if dst != src
        }

    direct = egresses()
    for node in topo.nodes.values():
        node.routes = {}
        node.default_route = None
    topo.build_routes()
    assert direct == egresses()
    assert all(len(node.routes) == 18 for node in topo.nodes.values())
    assert len(direct) == 19 * 18


def test_star_is_linear_in_its_leaves(sim):
    """The O(n) shape, structurally: one hub table of n routes and one
    default route per leaf, not n leaf tables of n entries."""
    config = NetworkConfig(relay_count=300, client_count=300, server_count=300)
    network = instantiate_network(plan_network(config, RandomStreams(3)), sim)
    hub = network.topology.node(network.hub_name)
    assert len(hub.routes) == 900 and hub.default_route is None
    leaves = [n for n in network.topology.nodes.values() if n is not hub]
    assert len(leaves) == 900
    assert all(leaf.routes == {} for leaf in leaves)
    assert all(leaf.default_route is leaf.interfaces[0] for leaf in leaves)


def test_star_leaf_to_unknown_name_fails_at_the_hub(sim):
    topo = build_star(sim, "hub", {"x": SPEC, "y": SPEC})
    topo.node("x").send(Packet(100, dst="ghost"))
    with pytest.raises(KeyError, match="node hub has no route to ghost"):
        sim.run()


def test_star_hub_swallows_addressed_packets(sim):
    topo = build_star(sim, "hub", {"x": SPEC})
    topo.node("x").send(Packet(100, dst="hub"))
    sim.run()
    hub_handler = topo.node("hub")._handler
    assert isinstance(hub_handler, ForwardingHandler)
    assert hub_handler.swallowed == 1


def test_node_without_handler_raises_on_delivery(sim):
    topo = build_chain(sim, ["a", "b"], [SPEC])
    topo.node("a").send(Packet(100, dst="b"))
    with pytest.raises(RuntimeError):
        sim.run()


def test_callable_handler_supported(sim):
    topo = build_chain(sim, ["a", "b"], [SPEC])
    got = []
    topo.node("b").set_handler(lambda packet, node: got.append((packet, node.name)))
    topo.node("a").send(Packet(100, dst="b"))
    sim.run()
    assert got and got[0][1] == "b"


def test_missing_route_raises(sim):
    topo = Topology(sim)
    topo.add_node("a")
    with pytest.raises(KeyError):
        topo.node("a").interface_to("nowhere")


def test_receive_counters(sim):
    topo = build_chain(sim, ["a", "b"], [SPEC])
    handler, __ = collector()
    topo.node("b").set_handler(handler)
    topo.node("a").send(Packet(256, dst="b"))
    topo.node("a").send(Packet(256, dst="b"))
    sim.run()
    assert topo.node("b").packets_received == 2


def test_routes_prefer_low_delay_path(sim):
    """Routing uses Dijkstra on propagation delay."""
    topo = Topology(sim)
    for name in ("a", "b", "c"):
        topo.add_node(name)
    direct = LinkSpec(mbit_per_second(16), milliseconds(100))
    fast_leg = LinkSpec(mbit_per_second(16), milliseconds(5))
    topo.connect("a", "c", direct)
    topo.connect("a", "b", fast_leg)
    topo.connect("b", "c", fast_leg)
    topo.build_routes()
    assert topo.path("a", "c") == ["a", "b", "c"]
