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

from typing import Any

from .._lazy import bind_all

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


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), ("baselines", "circuitstart", "dynamic", "factory"), name)
