"""Exception hierarchy for the discrete-event simulation engine."""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "SchedulingError",
    "ClockError",
]


class SimulationError(Exception):
    """Base class for every error raised by :mod:`repro.sim`."""


class SchedulingError(SimulationError):
    """An event was scheduled with invalid parameters.

    Typical causes: a negative delay, an absolute time in the simulated
    past, or scheduling onto a simulator that has been stopped.
    """


class ClockError(SimulationError):
    """The simulated clock was asked to move backwards."""
