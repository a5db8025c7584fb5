"""Discrete-event simulation engine.

This package is the bottom layer of the reproduction: a deterministic
calendar-queue simulator (:class:`Simulator`), cancellable events
(:class:`EventHandle`), a one-shot completion signal (:class:`Waiter`),
and seeded random streams (:class:`RandomStreams`).  It stands in for ns-3,
which the paper's nstor framework was built on.
"""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "ClockError",
    "EventHandle",
    "PeriodicSampler",
    "RandomStreams",
    "SchedulingError",
    "SimulationError",
    "Simulator",
    "Waiter",
    "derive_seed",
]


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), (
        "errors", "events", "monitor", "process", "rand", "simulator",
    ), name)
