"""Controller factory: build start-up schemes by name.

Experiments refer to controllers by short string kinds so a parameter
sweep is a list of strings, not a list of classes.  The registry also
carries the aliases used in prose: ``"with"`` (CircuitStart) and
``"without"`` (plain BackTap start-up), matching the legend of the
paper's Figure 1.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List

from ..transport.config import TransportConfig
from ..transport.controller import WindowController
from .baselines import (
    FixedWindowController,
    JumpStartController,
    PlainSlowStartController,
    VegasStartController,
)
from .circuitstart import CircuitStartController
from .dynamic import DynamicCircuitStartController

__all__ = [
    "CONTROLLER_REGISTRY",
    "check_controller_kinds",
    "controller_kinds",
    "make_controller",
]

#: kind -> constructor.  Constructors accept (config, **kwargs).
#: "with"/"without" match the legend of the paper's Figure 1: *with*
#: CircuitStart, and *without* — BackTap's native Vegas behaviour.
CONTROLLER_REGISTRY: Dict[str, Callable[..., WindowController]] = {
    "circuitstart": CircuitStartController,
    "with": CircuitStartController,
    "vegas-start": VegasStartController,
    "without": VegasStartController,
    "backtap": VegasStartController,
    "plain-slowstart": PlainSlowStartController,
    "fixed": FixedWindowController,
    "jumpstart": JumpStartController,
    "dynamic": DynamicCircuitStartController,
}


def controller_kinds() -> List[str]:
    """All recognized controller kind strings, sorted."""
    return sorted(CONTROLLER_REGISTRY)


def check_controller_kinds(kinds: Iterable[str]) -> None:
    """Reject the first of *kinds* that names no controller.

    Specs call this when they are built, so an unknown kind is refused
    before a network exists instead of by :func:`make_controller` at
    the first hop of the first circuit.
    """
    for kind in kinds:
        if kind not in CONTROLLER_REGISTRY:
            raise ValueError(
                "unknown controller kind %r (known: %s)"
                % (kind, ", ".join(controller_kinds()))
            )


def make_controller(
    kind: str, config: TransportConfig, **kwargs: Any
) -> WindowController:
    """Instantiate the controller registered under *kind*.

    Extra keyword arguments are forwarded to the controller constructor
    (e.g. ``window_cells`` for ``"fixed"``, ``initial_cells`` for
    ``"jumpstart"``, ``reentry_rounds`` for ``"dynamic"``).
    """
    check_controller_kinds((kind,))
    return CONTROLLER_REGISTRY[kind](config, **kwargs)
