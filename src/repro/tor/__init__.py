"""Tor overlay model: cells, directory, circuits, hosts.

Implements the Tor-specific substrate the paper's evaluation runs on:
fixed-size cells, a consensus-style relay directory with
bandwidth-weighted path selection, and the per-node protocol state
(:class:`TorHost`) that wires the hop-by-hop transport's feedback loop
together.  Circuits are pre-established, as in the paper's evaluation:
:class:`CircuitFlow` registers every hop's state directly and no
establishment handshake is modelled.
"""

from .apps import BulkSource, SinkApp
from .cells import (
    Cell,
    CellKind,
    DataCell,
    DestroyCell,
    FeedbackCell,
    cells_for_transfer,
)
from .circuit import CircuitFlow, CircuitSpec, allocate_circuit_id
from .directory import Directory, RelayDescriptor
from .hosts import CircuitState, TorHost
from .path_selection import PathSelector

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
