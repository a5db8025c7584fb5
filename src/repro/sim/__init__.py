"""Discrete-event simulation engine.

This package is the bottom layer of the reproduction: a deterministic
calendar-queue simulator (:class:`Simulator`), cancellable events
(:class:`EventHandle`), a one-shot completion signal (:class:`Waiter`),
and seeded random streams (:class:`RandomStreams`).  It stands in for ns-3,
which the paper's nstor framework was built on.
"""

from .errors import ClockError, SchedulingError, SimulationError
from .events import EventHandle
from .monitor import PeriodicSampler
from .process import Waiter
from .rand import RandomStreams, derive_seed
from .simulator import Simulator

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
