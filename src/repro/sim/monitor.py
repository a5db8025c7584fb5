"""Periodic measurement probes.

Experiments frequently need a value sampled on a fixed simulated-time
grid — queue depths, windows, delivered bytes.  :class:`PeriodicSampler`
wraps the schedule-resample-reschedule pattern; the value is any
callable, e.g. ``lambda: interface.backlog_packets`` for a queue.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .events import EventHandle
from .simulator import Simulator

__all__ = ["PeriodicSampler"]


class PeriodicSampler:
    """Samples ``probe()`` every *interval* simulated seconds.

    Sampling starts immediately (a sample at the start time) and stops
    when :meth:`stop` is called or when the optional *while_predicate*
    turns false, whichever comes first.  Once stopped, no tick remains
    in the event queue: a finished sampler never keeps
    ``Simulator.run()`` alive.

    The sampler is compatible with the park-the-clock semantics of
    ``run_until(time, max_events=...)``: when the loop halts early the
    clock stays at the last executed event, so the pending tick is
    never "in the past" and a resumed run continues the grid exactly
    (no duplicated or skipped samples).  Under the old always-advance
    semantics the pending tick could end up behind the clock and raise
    a spurious ``ClockError`` — the regression test pins the fixed
    behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], float],
        interval: float,
        while_predicate: Optional[Callable[[], bool]] = None,
    ) -> None:
        if not interval > 0:  # non-positive or NaN
            raise ValueError("sampling interval must be positive, got %r" % interval)
        self.sim = sim
        self.probe = probe
        self.interval = interval
        self.while_predicate = while_predicate
        self.times: List[float] = []
        self.values: List[float] = []
        self._stopped = False
        #: The pending tick's handle, so :meth:`stop` can cancel it
        #: instead of leaving a dead event in the queue.
        self._pending: Optional[EventHandle] = sim.call_soon(self._tick)

    @property
    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))

    @property
    def max_value(self) -> float:
        """Largest sampled value (0.0 when nothing was sampled)."""
        return max(self.values, default=0.0)

    def stop(self) -> None:
        """Cease sampling immediately: the pending tick is cancelled.

        Nothing of the sampler remains in the event queue afterwards —
        a ``run()`` that only had the sampler left returns right away
        instead of executing (and discarding) one more tick up to a
        full interval later.  Idempotent.
        """
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _tick(self) -> None:
        self._pending = None
        if self._stopped:
            return
        if self.while_predicate is not None and not self.while_predicate():
            return
        self.times.append(self.sim.now)
        self.values.append(float(self.probe()))
        self._pending = self.sim.schedule(self.interval, self._tick)

