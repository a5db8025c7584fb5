"""Relay directory (a minimal Tor consensus).

Tor clients learn the relay population from a *consensus* published by
directory authorities: each relay has a measured bandwidth weight and a
set of flags (``Guard``, ``Exit``, ...).  Path selection samples relays
proportionally to bandwidth, subject to position constraints.

:class:`Directory` reproduces exactly the parts the CircuitStart
evaluation needs: named relays with bandwidth weights and flags, and
weighted sampling without replacement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..units import Rate

__all__ = ["RelayFlag", "RelayDescriptor", "Directory"]


class RelayFlag:
    """Consensus flags used by position constraints."""

    GUARD = "Guard"
    EXIT = "Exit"
    FAST = "Fast"
    STABLE = "Stable"


@dataclass(frozen=True)
class RelayDescriptor:
    """One relay as seen in the consensus."""

    name: str
    bandwidth: Rate
    flags: FrozenSet[str] = frozenset()

    def has_flag(self, flag: str) -> bool:
        return flag in self.flags

    @property
    def weight(self) -> float:
        """Selection weight (consensus uses measured bandwidth)."""
        return self.bandwidth.bytes_per_second


class Directory:
    """The relay population plus bandwidth-weighted sampling."""

    def __init__(self, descriptors: Iterable[RelayDescriptor] = ()) -> None:
        self._relays: Dict[str, RelayDescriptor] = {}
        for descriptor in descriptors:
            self.add(descriptor)

    def __len__(self) -> int:
        return len(self._relays)

    def __contains__(self, name: str) -> bool:
        return name in self._relays

    def add(self, descriptor: RelayDescriptor) -> None:
        """Register *descriptor*; duplicate names are an error."""
        if descriptor.name in self._relays:
            raise ValueError("duplicate relay %r in directory" % descriptor.name)
        self._relays[descriptor.name] = descriptor

    def get(self, name: str) -> RelayDescriptor:
        """Look up one relay by name."""
        try:
            return self._relays[name]
        except KeyError:
            raise KeyError("relay %r not in directory" % name) from None

    def relays(self, with_flag: Optional[str] = None) -> List[RelayDescriptor]:
        """All relays, optionally filtered by a consensus flag."""
        everyone = list(self._relays.values())
        if with_flag is None:
            return everyone
        return [relay for relay in everyone if relay.has_flag(with_flag)]

    def weighted_sample(
        self,
        rng: random.Random,
        count: int,
        with_flag: Optional[str] = None,
        exclude: Sequence[str] = (),
    ) -> List[RelayDescriptor]:
        """Sample *count* distinct relays, proportional to bandwidth.

        Sampling is without replacement: each draw removes the chosen
        relay from the candidate pool.  Raises :class:`ValueError` when
        the (filtered) pool is too small.
        """
        pool = [r for r in self.relays(with_flag) if r.name not in set(exclude)]
        if len(pool) < count:
            raise ValueError(
                "cannot sample %d relays from a pool of %d" % (count, len(pool))
            )
        chosen: List[RelayDescriptor] = []
        for __ in range(count):
            weights = [relay.weight for relay in pool]
            total = sum(weights)
            pick = rng.random() * total
            cumulative = 0.0
            index = len(pool) - 1  # guards against float round-off
            for i, weight in enumerate(weights):
                cumulative += weight
                if pick < cumulative:
                    index = i
                    break
            chosen.append(pool.pop(index))
        return chosen
