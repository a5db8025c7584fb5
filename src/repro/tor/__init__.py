"""Tor overlay model: cells, directory, circuits, hosts.

Implements the Tor-specific substrate the paper's evaluation runs on:
fixed-size cells, a consensus-style relay directory with
bandwidth-weighted path selection, and the per-node protocol state
(:class:`TorHost`) that wires the hop-by-hop transport's feedback loop
together.  Circuits are pre-established, as in the paper's evaluation:
:class:`CircuitFlow` registers every hop's state directly and no
establishment handshake is modelled.
"""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "BulkSource",
    "Cell",
    "CellKind",
    "CircuitFlow",
    "CircuitSpec",
    "CircuitState",
    "DataCell",
    "DestroyCell",
    "Directory",
    "FeedbackCell",
    "PathSelector",
    "RelayDescriptor",
    "SinkApp",
    "TorHost",
    "allocate_circuit_id",
    "cells_for_transfer",
]


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), (
        "apps", "cells", "circuit", "directory", "hosts", "path_selection",
    ), name)
