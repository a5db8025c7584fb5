"""Circuit path selection.

Tor builds circuits of (typically) three relays — guard, middle, exit —
sampled proportionally to bandwidth and pairwise distinct.  The
:class:`PathSelector` reproduces that policy against a
:class:`~repro.tor.directory.Directory`:

* no relay appears twice in one path;
* every position is sampled bandwidth-weighted without replacement.

The directory carries no consensus flags (the synthetic networks of
the Figure-1c experiment), so any relay can serve any position,
matching the paper's "randomly generated network of Tor relays".
"""

from __future__ import annotations

import random
from typing import List

from .directory import Directory, RelayDescriptor

__all__ = ["PathSelector"]


class PathSelector:
    """Samples relay paths from a directory."""

    def __init__(self, directory: Directory, rng: random.Random) -> None:
        self.directory = directory
        self.rng = rng

    def select_path(self, hops: int = 3) -> List[RelayDescriptor]:
        """Choose *hops* distinct relays for one circuit.

        The relays are drawn in Tor's order — exit, guard, then middles
        — and returned in path order: guard, middles..., exit.
        """
        if hops < 1:
            raise ValueError("a circuit needs at least one hop, got %r" % hops)
        chosen = self.directory.weighted_sample(self.rng, hops)
        return chosen[1:2] + chosen[2:] + chosen[:1]
