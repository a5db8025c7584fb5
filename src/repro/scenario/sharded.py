"""Connected components of a planned scenario, and the kept shard entry.

:func:`partition_plan` groups a plan's circuits into the components
they form over shared leaves.  :func:`run_sharded` once ran several
components in a process pool; measured against the engine's own kind
fork it never paid for itself (``BENCH_sharded.json``), so it now
validates its shard count and replays the plan with
:func:`run_planned`, byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .engine import ScenarioResult, run_planned
from .spec import PlannedCircuit, ScenarioPlan

__all__ = [
    "partition_plan",
    "run_sharded",
]


def partition_plan(plan: ScenarioPlan) -> List[List[PlannedCircuit]]:
    """Connected components of the plan's circuits over shared leaves.

    Two circuits land in the same component when they share any leaf
    (source, sink or relay) — directly or transitively.  Components are
    ordered by first appearance in plan order, and each component's
    circuits stay in plan order.
    """
    parent: Dict[str, str] = {}

    def find(leaf: str) -> str:
        root = leaf
        while parent[root] != root:
            root = parent[root]
        while parent[leaf] != root:  # path compression
            parent[leaf], leaf = root, parent[leaf]
        return root

    for planned in plan.circuits:
        leaves = _circuit_leaves(planned)
        for leaf in leaves:
            parent.setdefault(leaf, leaf)
        first = find(leaves[0])
        for leaf in leaves[1:]:
            parent[find(leaf)] = first

    components: List[List[PlannedCircuit]] = []
    index_of: Dict[str, int] = {}
    for planned in plan.circuits:
        root = find(planned.source)
        slot = index_of.get(root)
        if slot is None:
            slot = index_of[root] = len(components)
            components.append([])
        components[slot].append(planned)
    return components


def _circuit_leaves(planned: PlannedCircuit) -> List[str]:
    """Every leaf the circuit touches: source, sink and relays."""
    return [planned.source, planned.sink, *planned.relays]


def run_sharded(
    plan: ScenarioPlan,
    kinds: Optional[Sequence[str]] = None,
    shards: int = 1,
) -> ScenarioResult:
    """:func:`run_planned` of *plan*, after refusing a bad *shards*.

    *shards* must be an int >= 1; it changes nothing else.
    """
    if not isinstance(shards, int) or shards < 1:
        raise ValueError("shards must be >= 1, got %r" % (shards,))
    return run_planned(plan, kinds)
