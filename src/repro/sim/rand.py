"""Deterministic random-number streams for reproducible experiments.

Every stochastic choice in an experiment (topology generation, relay
bandwidth draws, path selection, workload start jitter) must be
reproducible from a single seed, and — equally important — *independent*
across subsystems: adding one extra draw in topology generation must not
perturb path selection.

:class:`RandomStreams` hands out named substreams.  Each substream is a
:class:`random.Random` seeded from a stable hash of ``(master_seed,
name)``, so streams are decoupled from each other and from call order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from *master_seed* and a stream *name*.

    Uses BLAKE2b rather than :func:`hash` so the derivation is stable
    across interpreter runs and ``PYTHONHASHSEED`` values.
    """
    digest = hashlib.blake2b(
        ("%d/%s" % (master_seed, name)).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RandomStreams:
    """A family of independent, named pseudo-random streams.

    Example
    -------
    >>> streams = RandomStreams(seed=7)
    >>> topo_rng = streams.stream("topology")
    >>> path_rng = streams.stream("paths")
    >>> topo_rng is streams.stream("topology")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) substream called *name*."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.seed, name))
            self._streams[name] = rng
        return rng
