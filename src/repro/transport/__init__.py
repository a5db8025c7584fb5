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

from .config import CELL_PAYLOAD, CELL_SIZE, FEEDBACK_SIZE, TransportConfig
from .controller import Phase, WindowController
from .hop import HopSender
from .rtt import RttEstimator

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
