"""Hop-by-hop, window-based transport (the BackTap model).

The paper assumes "a custom, window-based transport protocol that
allows low-latency communication between neighboring relays" — in the
evaluation, BackTap (Tschorsch & Scheuermann, NSDI '16).  This package
implements that substrate:

* :class:`TransportConfig` — every tunable in one place;
* :class:`RttEstimator` — base/current/smoothed RTT from per-cell
  feedback timing;
* :class:`WindowController` — round bookkeeping plus Vegas-style
  congestion avoidance; start-up schemes subclass it (see
  :mod:`repro.core`);
* :class:`HopSender` — the per-hop data path: buffer, window gating,
  feedback handling.
"""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "CELL_PAYLOAD",
    "CELL_SIZE",
    "FEEDBACK_SIZE",
    "HopSender",
    "Phase",
    "RttEstimator",
    "TransportConfig",
    "WindowController",
]


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), ("config", "controller", "hop", "rtt"), name)
