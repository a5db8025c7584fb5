"""One-shot completion signal for callback-style simulation code.

Callbacks are the engine's only currency.  :class:`Waiter` is the
synchronization point applications use to announce "done" to whoever
subscribed: :class:`~repro.tor.apps.SinkApp` and
:class:`~repro.tor.streams.MultiStreamSink` trigger one at the last
byte, and the scenario engine, probes and workloads subscribe to it.
"""

from __future__ import annotations

from typing import Any, Callable, List

from .errors import SimulationError
from .simulator import Simulator

__all__ = ["Waiter"]


class Waiter:
    """A one-shot, level-triggered synchronization point.

    Subscribers are called back once some other code calls
    :meth:`trigger`.  Triggering before anyone subscribes is fine — the
    state is latched, and a later :meth:`subscribe` completes at once.
    A value can be carried along and is handed to every callback.
    """

    __slots__ = ("_sim", "_triggered", "_value", "_callbacks")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._triggered = False
        self._value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether :meth:`trigger` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value passed to :meth:`trigger` (``None`` until then)."""
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Release every subscriber, delivering *value*.  A second call raises."""
        if self._triggered:
            raise SimulationError("waiter already triggered")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._sim.call_soon(callback, value)

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Invoke *callback(value)* when triggered (soon, if already).

        The callback always runs via ``call_soon``, never synchronously
        inside :meth:`trigger`, so subscribers cannot reorder the
        triggering event's own work.
        """
        if self._triggered:
            self._sim.call_soon(callback, self._value)
        else:
            self._callbacks.append(callback)

    def release(self) -> None:
        """Forget the subscribers of a waiter that will never trigger.

        For the end of a run: a subscriber usually references whatever
        owns this waiter, and keeping it would make the pair a
        reference cycle.
        """
        self._callbacks = []
