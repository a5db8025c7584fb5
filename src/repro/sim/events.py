"""Cancellable events.

:class:`EventHandle` is what ``schedule``, ``schedule_at`` and
``call_soon`` return, for timers.  The heap it sits in (a classic
calendar queue on :mod:`heapq`), the sequence counter and the count of
cancelled entries are :class:`~repro.sim.simulator.Simulator`'s.  Two
details matter for reproducibility:

* **Stable ordering.**  Events scheduled for the same instant fire in
  the order they were scheduled (FIFO within a timestamp).  A strictly
  increasing sequence number breaks ties, so runs are deterministic
  regardless of heap internals.
* **Cheap cancellation.**  Cancelling an event marks its handle instead
  of rebuilding the heap; the simulator's loop discards dead entries
  lazily when they surface.  Re-arming a timer to a later deadline
  (``Simulator.rearm``) costs no heap operation at all: the handle
  takes a new ``time`` and ``seq`` and its entry stays put, to be
  pushed again at the due place when it surfaces under its old
  ``seq``.  A retransmission timer, pushed back on every cell sent,
  touches the heap only when one of its old deadlines surfaces.

A pending handle points back at its simulator, which counts the dead
entry when the handle is cancelled.  Ordering, cancellation and
compaction are exercised through the simulator by the hypothesis
property tests in ``tests/test_sim_events.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

__all__ = ["EventHandle"]


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    Handles are returned by :meth:`repro.sim.simulator.Simulator.schedule`
    (and friends).  They are single-shot: once fired or cancelled the
    handle is inert.  While pending, :meth:`Simulator.rearm
    <repro.sim.simulator.Simulator.rearm>` may move one to a later
    ``(time, seq)``.
    """

    __slots__ = ("time", "seq", "callback", "args", "_cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Any,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        # The owning Simulator while pending (firing or cancelling clears
        # it): cancel() reports the dead entry to it.
        self._sim = sim

    def cancel(self) -> bool:
        """Cancel the event.

        Returns ``True`` if the event was pending and is now cancelled,
        ``False`` if it had already fired or been cancelled.  Cancelling
        is idempotent and never raises.  The owning simulator's
        dead-entry count is updated here, so ``EventHandle.cancel()``
        and ``Simulator.cancel(handle)`` agree on the accounting.
        """
        sim = self._sim
        if sim is None:
            return False
        self._sim = None
        self._cancelled = True
        sim._note_handle_cancelled()
        # Drop references so cancelled timers do not pin large object
        # graphs (packets, transports) until they surface in the heap.
        self.callback = _noop
        self.args = ()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self._cancelled
                 else "pending" if self._sim is not None else "fired")
        return "<EventHandle t=%.9f seq=%d %s>" % (self.time, self.seq, state)


def _noop(*_args: Any) -> None:
    """Replacement callback for cancelled events."""
