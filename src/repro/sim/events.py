"""Events and the pending-event queue.

The engine is a classic calendar queue built on :mod:`heapq`.  Two
details matter for reproducibility and are encoded here rather than in
the simulator:

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

:class:`EventQueue` owns the heap, the sequence counter and the books on
cancelled entries, and builds the cancellable entries
(:meth:`EventQueue.push`, one :class:`EventHandle` each — for timers).
:class:`~repro.sim.simulator.Simulator` holds the same heap and counter
and does everything per-event itself: the handle-free pushes
(``schedule_fast``, and ``push`` under a sequence number drawn earlier
with ``reserve_seq``) for the ~95% of events that are never cancelled,
and every pop.  One heap and one counter, so FIFO ordering holds *across*
the ways in.

**Heap compaction.**  Cancelled handle entries normally leave the heap
lazily, when they surface at the top.  Under cancel-heavy load (churn
tearing down circuits cancels many timers) the garbage can outnumber
the live entries; once it does, the heap is rebuilt in place — filter
plus ``heapify`` — so memory and per-op cost stay O(live events), not
O(events ever scheduled).

The queue counts its *dead* entries, not its live ones: pushes and pops
of live events — all the hot path ever does — touch no counter.

Ordering, cancellation and compaction are exercised through the
simulator by the hypothesis property tests in
``tests/test_sim_events.py``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from .errors import SchedulingError

__all__ = ["EventHandle", "EventQueue"]


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    Handles are returned by :meth:`repro.sim.simulator.Simulator.schedule`
    (and friends).  They are single-shot: once fired or cancelled the
    handle is inert.  While pending, :meth:`Simulator.rearm
    <repro.sim.simulator.Simulator.rearm>` may move one to a later
    ``(time, seq)``.
    """

    __slots__ = ("time", "seq", "callback", "args", "_cancelled", "_fired",
                 "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        queue: "EventQueue",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False
        # Back-reference to the owning queue while the handle is live in
        # its heap (the loop clears it as it pops the entry), so cancel()
        # keeps the live count honest no matter whether it is called
        # directly or via Simulator.cancel().
        self._queue: Optional["EventQueue"] = queue

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event's callback has already run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Cancel the event.

        Returns ``True`` if the event was pending and is now cancelled,
        ``False`` if it had already fired or been cancelled.  Cancelling
        is idempotent and never raises.  The owning queue's live count
        is updated here, so ``EventHandle.cancel()`` and
        ``Simulator.cancel(handle)`` agree on the accounting.
        """
        if not self.pending:
            return False
        self._cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_handle_cancelled()
        # Drop references so cancelled timers do not pin large object
        # graphs (packets, transports) until they surface in the heap.
        self.callback = _noop
        self.args = ()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "fired" if self._fired else "pending"
        return "<EventHandle t=%.9f seq=%d %s>" % (self.time, self.seq, state)


def _noop(*_args: Any) -> None:
    """Replacement callback for cancelled events."""


class EventQueue:
    """Min-heap of pending events ordered by ``(time, seq)``.

    Heap entries come in two shapes that share one sequence counter:

    * ``(time, seq, EventHandle)`` — cancellable, from :meth:`push`;
    * ``(time, seq, callback, args)`` — handle-free, pushed by the
      simulator straight onto :attr:`_heap`.

    ``(time, seq)`` is unique per entry, so heap comparisons never reach
    the third element and the two shapes mix freely.  A handle entry
    whose ``seq`` differs from its handle's was re-armed to a later
    place; the simulator's loop moves it there when it surfaces.  The queue itself
    knows nothing about simulated time; the simulator validates times
    before pushing, and pops.
    """

    __slots__ = ("_heap", "_counter", "_dead")

    #: Compaction only kicks in once at least this many dead entries
    #: have accumulated — rebuilding a ten-entry heap is noise.
    _COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, ...]] = []
        self._counter = itertools.count()
        # Cancelled handle entries still sitting in the heap.
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled, unfired) events."""
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> EventHandle:
        """Schedule *callback(\\*args)* at absolute *time*; return its handle."""
        if time != time:  # NaN check without importing math
            raise SchedulingError("event time must not be NaN")
        handle = EventHandle(time, next(self._counter), callback, args, self)
        heapq.heappush(self._heap, (time, handle.seq, handle))
        return handle

    def clear(self) -> None:
        """Drop every pending event; each live handle ends cancelled.

        A cancelled handle no longer holds its callback, so a timer
        that its owner still references (``owner -> handle -> bound
        method -> owner``) stops being a reference cycle.
        """
        for entry in self._heap:
            if len(entry) == 3:
                handle = entry[2]
                handle._cancelled = True
                handle._queue = None
                handle.callback = _noop
                handle.args = ()
        self._heap.clear()
        self._dead = 0

    def _note_handle_cancelled(self) -> None:
        """One live handle entry in the heap was cancelled.

        Once dead entries outnumber the live ones, the heap is compacted
        in place — filter out the garbage, then re-heapify.  In-place
        slice assignment matters: the simulator holds a direct
        reference to the heap list.
        """
        dead = self._dead = self._dead + 1
        heap = self._heap
        if dead > len(heap) - dead and dead >= self._COMPACT_MIN_DEAD:
            heap[:] = [
                entry
                for entry in heap
                if len(entry) == 4 or not entry[2]._cancelled
            ]
            heapq.heapify(heap)
            self._dead = 0
