"""Events and the pending-event queue.

The engine is a classic calendar queue built on :mod:`heapq`.  Two
details matter for reproducibility and are encoded here rather than in
the simulator:

* **Stable ordering.**  Events scheduled for the same instant fire in
  the order they were scheduled (FIFO within a timestamp).  A strictly
  increasing sequence number breaks ties, so runs are deterministic
  regardless of heap internals.
* **Cheap cancellation.**  Cancelling an event marks its handle instead
  of rebuilding the heap; the queue discards dead entries lazily when
  they surface.  Timers that are rescheduled often (retransmission
  timers, idle timeouts) stay O(log n).

Three ways in share one heap and one sequence counter, so FIFO ordering
holds *across* them:

* the **handle path** (:meth:`EventQueue.push`) returns an
  :class:`EventHandle` that can be cancelled — for timers;
* the **fast path** (:meth:`EventQueue.push_fast`) stores a plain
  ``(time, seq, callback, args)`` tuple with no handle object at all —
  for the ~95% of events that are never cancelled (deliveries,
  feedback);
* a **reserved push** (:meth:`EventQueue.reserve_seq`, then maybe
  :meth:`EventQueue.push_reserved`) draws the sequence number now and
  decides later whether the event is needed at all.  A link transmitter
  reserves the slot of its "transmission complete" event when a packet
  starts serializing and only pushes it if another packet shows up
  while the wire is busy; the event then fires at exactly the
  ``(time, seq)`` position an eagerly pushed one would have had.

**Heap compaction.**  Cancelled handle entries normally leave the heap
lazily, when they surface at the top.  Under cancel-heavy load (churn
tearing down circuits cancels many timers) the garbage can outnumber
the live entries; once it does, the heap is rebuilt in place — filter
plus ``heapify`` — so memory and per-op cost stay O(live events), not
O(events ever scheduled).

The queue counts its *dead* entries, not its live ones: pushes and pops
of live events — all the hot path ever does — touch no counter.

All of this is exercised by the hypothesis property tests in
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
    handle is inert.
    """

    __slots__ = ("time", "seq", "callback", "args", "_cancelled", "_fired",
                 "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False
        # Back-reference to the owning queue while the handle is live in
        # its heap, so cancel() keeps the live count honest no matter
        # whether it is called directly or via Simulator.cancel().
        self._queue = queue

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

    def _fire(self) -> None:
        self._fired = True
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "fired" if self._fired else "pending"
        return "<EventHandle t=%.9f seq=%d %s>" % (self.time, self.seq, state)


def _noop(*_args: Any) -> None:
    """Replacement callback for cancelled events."""


class EventQueue:
    """Min-heap of pending events ordered by ``(time, seq)``.

    Heap entries come in two shapes that share one sequence counter:

    * ``(time, seq, EventHandle)`` — cancellable, from :meth:`push`;
    * ``(time, seq, callback, args)`` — handle-free, from
      :meth:`push_fast` and :meth:`push_reserved`.

    ``(time, seq)`` is unique per entry, so heap comparisons never reach
    the third element and the two shapes mix freely.  The queue itself
    knows nothing about simulated time; the simulator validates times
    before pushing.  This split keeps the heap logic independently
    testable (including with hypothesis).
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

    def push_fast(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule *callback(\\*args)* at absolute *time*, handle-free.

        The fast path for events that are never cancelled: no
        :class:`EventHandle` is allocated, only the heap tuple itself.
        FIFO-within-timestamp ordering against :meth:`push` events is
        preserved because both paths draw from the same counter.
        """
        if time != time:
            raise SchedulingError("event time must not be NaN")
        heapq.heappush(self._heap, (time, next(self._counter), callback, args))

    def reserve_seq(self) -> int:
        """Draw the next sequence number without scheduling anything.

        The caller may later :meth:`push_reserved` an event under it —
        at most once — or never use it; an unused number costs nothing.
        """
        return next(self._counter)

    def push_reserved(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule *callback(\\*args)* at ``(time, seq)``, handle-free.

        *seq* must come from :meth:`reserve_seq` and be used once.  The
        event fires exactly where one pushed at reservation time would
        have: after everything scheduled for *time* before the
        reservation, before everything scheduled for *time* after it.
        """
        if time != time:
            raise SchedulingError("event time must not be NaN")
        heapq.heappush(self._heap, (time, seq, callback, args))

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when empty."""
        self._drop_dead()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> EventHandle:
        """Remove and return the next live event.

        Fast-path entries are wrapped in a fresh (already detached)
        :class:`EventHandle` so callers see one uniform type; the
        simulator's hot loop works on the raw heap entries instead.

        Raises :class:`IndexError` when no live events remain (mirrors
        :meth:`list.pop` semantics, callers check :func:`len` first).
        """
        self._drop_dead()
        if not self._heap:
            raise IndexError("pop from empty event queue")
        entry = heapq.heappop(self._heap)
        if len(entry) == 4:
            return EventHandle(entry[0], entry[1], entry[2], entry[3])
        handle = entry[2]
        handle._queue = None
        return handle

    def pop_callback(self) -> Tuple[float, Callable[..., Any], Tuple[Any, ...]]:
        """Remove the next live event; return ``(time, callback, args)``.

        The allocation-free variant of :meth:`pop`: no wrapper handle is
        created for fast-path entries, and handle-path entries are
        marked fired here so the caller can invoke the callback
        directly.
        """
        self._drop_dead()
        if not self._heap:
            raise IndexError("pop from empty event queue")
        entry = heapq.heappop(self._heap)
        if len(entry) == 4:
            return entry[0], entry[2], entry[3]
        handle = entry[2]
        handle._queue = None
        handle._fired = True
        return entry[0], handle.callback, handle.args

    def clear(self) -> int:
        """Drop every pending event; return how many live ones were dropped."""
        dropped = len(self)
        for entry in self._heap:
            if len(entry) == 3:
                # Detach first: the heap is about to be emptied, so the
                # cancellation must not count (or compact) against it.
                entry[2]._queue = None
                entry[2].cancel()
        self._heap.clear()
        self._dead = 0
        return dropped

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

    def _drop_dead(self) -> None:
        """Discard cancelled entries sitting at the top of the heap."""
        heap = self._heap
        while heap and len(heap[0]) == 3 and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self._dead -= 1
