"""`Topology`'s own Dijkstra against the networkx search it replaced.

Until PR 20 ``build_routes()`` was ``nx.all_pairs_dijkstra_path`` and
``path()`` was ``nx.shortest_path``; every golden, chain and the
friendliness tree were routed by them.  The package no longer imports
networkx, and this module — the only place that still does — keeps it
as the reference: the same nodes and links are added to a
:class:`Topology` and to an ``nx.Graph`` in the same order, and the two
must agree on every next hop, equal-delay ties and parallel equal-cost
detours included.

Link delays are small multiples of a power of two, so sums are exact
and ties really are ties.

Which of several equal-delay paths is "the" path is decided by the
search, not by the graph.  ``build_routes()`` and ``path()`` now share
one search, networkx's single-source one (``all_pairs_dijkstra_path``).
``nx.shortest_path(G, a, b)`` runs a *bidirectional* search instead,
which on a tie may name a different equally short path than the routing
tables use; against it ``path()`` is held to the same total delay always
and to the same nodes wherever the shortest path is unique.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count

import pytest
from hypothesis import find, given
from hypothesis import strategies as st

from repro.net.topology import LinkSpec, Topology
from repro.sim.simulator import Simulator
from repro.units import Rate

nx = pytest.importorskip("networkx")

UNIT = 2.0 ** -10
RATE = Rate(1e6)


@st.composite
def connected_graphs(draw):
    """``(names, links)``: 2–9 nodes in a drawn order, a spanning tree plus
    extra links, in a drawn order, with delays of 1–3 units (so that
    equal-delay ties and two-hop detours as long as a direct link are
    common, not rare)."""
    size = draw(st.integers(2, 9))
    names = draw(st.permutations(["n%d" % i for i in range(size)]))
    pairs = {
        (names[draw(st.integers(0, index - 1))], names[index])
        for index in range(1, size)
    }
    for a, b in draw(st.lists(st.tuples(*[st.sampled_from(names)] * 2), max_size=12)):
        if a != b and (b, a) not in pairs:
            pairs.add((a, b))
    links = [
        (a, b, draw(st.sampled_from([1, 1, 2, 3])) * UNIT)
        for a, b in draw(st.permutations(sorted(pairs)))
    ]
    return list(names), links


def assert_routes_like_networkx(names, links, topology_cls=Topology):
    topology, graph = topology_cls(Simulator()), nx.Graph()
    for name in names:
        topology.add_node(name)
        graph.add_node(name)
    for a, b, delay in links:
        topology.connect(a, b, LinkSpec(RATE, delay))
        graph.add_edge(a, b, delay=delay)
    topology.build_routes()
    for src, per_dst in nx.all_pairs_dijkstra_path(graph, weight="delay"):
        routes = topology.node(src).routes
        # Same destinations, installed in the same (nearest-first) order.
        assert list(routes) == [dst for dst in per_dst if dst != src]
        for dst, path in per_dst.items():
            if dst == src:
                assert topology.path(src, dst) == [src]
                continue
            assert routes[dst] is topology._interface_between(src, path[1])
            assert topology.path(src, dst) == path
            either_way = nx.shortest_path(graph, src, dst, weight="delay")
            assert nx.path_weight(graph, either_way, "delay") == sum(
                topology._interface_between(a, b).link.delay
                for a, b in zip(path, path[1:])
            )
            if len(list(nx.all_shortest_paths(graph, src, dst, weight="delay"))) == 1:
                assert either_way == path


@given(connected_graphs())
def test_routes_and_paths_equal_networkx(graph):
    assert_routes_like_networkx(*graph)


# Two equal-delay ways round a diamond, and a two-hop detour exactly as
# long as the direct link: the first path found must be kept.
DIAMOND = (
    ["a", "b", "c", "d"],
    [("a", "b", UNIT), ("a", "c", UNIT), ("b", "d", UNIT), ("c", "d", UNIT)],
)
DETOUR = (
    ["a", "b", "c"],
    [("a", "b", UNIT), ("b", "c", UNIT), ("a", "c", 2 * UNIT)],
)


@pytest.mark.parametrize("graph", [DIAMOND, DETOUR], ids=["diamond", "detour"])
def test_ties_keep_the_first_path_found(graph):
    assert_routes_like_networkx(*graph)


class LaterTieWins(Topology):
    """A planted bug: among equal delays the path found *last* wins —
    ``<=`` where the relaxation says ``<``, and the newest of equally
    distant fringe entries settled first.  The comparison must notice.

    It takes both halves.  A fringe entry carries its own predecessor and
    equal distances pop oldest first, so under ``<=`` alone the extra
    entry is pushed, pops second and is skipped: :class:`LooseRelaxation`
    routes exactly like the real search, by construction."""

    newest_first = True

    def _shortest_tree(self, src_name):
        tree, best, pushes = {}, {src_name: 0}, count(1)
        order = -1 if self.newest_first else 1
        fringe = [(0, 0, src_name, None)]
        while fringe:
            distance, _, name, before = heappop(fringe)
            if name in tree:
                continue
            tree[name] = before
            for peer, spec in self._neighbours[name].items():
                through = distance + spec.delay
                if peer not in tree and (peer not in best or through <= best[peer]):
                    best[peer] = through
                    heappush(fringe, (through, order * next(pushes), peer, name))
        return tree


class LooseRelaxation(LaterTieWins):
    newest_first = False


def disagrees(graph, topology_cls):
    try:
        assert_routes_like_networkx(*graph, topology_cls=topology_cls)
    except AssertionError:
        return True
    return False


def test_planted_tie_bug_is_caught():
    assert disagrees(DIAMOND, LaterTieWins)
    assert disagrees(DETOUR, LaterTieWins)
    assert not disagrees(DIAMOND, LooseRelaxation)
    assert not disagrees(DETOUR, LooseRelaxation)
    # ... and the generated graphs reach such a case unaided (raises
    # NoSuchExample otherwise), so the property above has teeth.
    find(connected_graphs(), lambda graph: disagrees(graph, LaterTieWins))
