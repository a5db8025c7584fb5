"""CircuitStart and comparison start-up schemes (the paper's core).

* :class:`CircuitStartController` — the published algorithm: round-based
  doubling on per-hop feedback, Vegas-style γ exit, overshooting
  compensation, implicit backpropagation.
* :class:`PlainSlowStartController` — the "without CircuitStart"
  comparator (traditional slow start + halving over the same feedback
  substrate).
* :class:`FixedWindowController`, :class:`JumpStartController` — the
  no-start-up extremes discussed in the paper's introduction.
* :class:`DynamicCircuitStartController` — the future-work extension
  (mid-flow re-entry and fast cut-back).
* :func:`make_controller` — string-keyed factory used by experiments.
"""

from .baselines import (
    FixedWindowController,
    JumpStartController,
    PlainSlowStartController,
    VegasStartController,
)
from .circuitstart import CircuitStartController
from .dynamic import DynamicCircuitStartController
from .factory import CONTROLLER_REGISTRY, controller_kinds, make_controller

__all__ = [
    "CONTROLLER_REGISTRY",
    "CircuitStartController",
    "DynamicCircuitStartController",
    "FixedWindowController",
    "JumpStartController",
    "PlainSlowStartController",
    "VegasStartController",
    "controller_kinds",
    "make_controller",
]
