"""Relay directory (a minimal Tor consensus).

Tor clients learn the relay population from a *consensus* published by
directory authorities, in which each relay has a measured bandwidth
weight.  Path selection samples relays proportionally to bandwidth.

:class:`Directory` reproduces exactly the parts the CircuitStart
evaluation needs: named relays with bandwidth weights, and weighted
sampling without replacement.  The synthetic networks carry no
consensus flags, so any relay can serve any position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..units import Rate

__all__ = ["RelayDescriptor", "Directory"]


@dataclass(frozen=True)
class RelayDescriptor:
    """One relay as seen in the consensus."""

    name: str
    bandwidth: Rate

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

    def add(self, descriptor: RelayDescriptor) -> None:
        """Register *descriptor*; duplicate names are an error."""
        if descriptor.name in self._relays:
            raise ValueError("duplicate relay %r in directory" % descriptor.name)
        self._relays[descriptor.name] = descriptor

    def weighted_sample(
        self,
        rng: random.Random,
        count: int,
        exclude: Sequence[str] = (),
    ) -> List[RelayDescriptor]:
        """Sample *count* distinct relays, proportional to bandwidth.

        Sampling is without replacement: each draw removes the chosen
        relay from the candidate pool.  Raises :class:`ValueError` when
        the pool left after *exclude* is too small.
        """
        excluded = set(exclude)
        pool = [r for r in self._relays.values() if r.name not in excluded]
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
