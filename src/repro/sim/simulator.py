"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock and the pending-event heap
and provides the scheduling API every other subsystem builds on:

* :meth:`Simulator.schedule` — run a callback after a relative delay;
* :meth:`Simulator.schedule_at` — run a callback at an absolute time;
* :meth:`Simulator.schedule_fast` — like :meth:`schedule`, but without
  allocating a cancellable :class:`~repro.sim.events.EventHandle`, for
  events nothing cancels (the per-cell path itself goes through
  :attr:`push`; the layer benchmarks and tests schedule this way);
* :attr:`Simulator.reserve_seq` / :attr:`push` / :attr:`current_seq`
  — the deferred-event API: hold a place in the ``(time, seq)`` order
  now, push the event only if it turns out to be needed, and tell
  whether the loop has already gone past that place;
* :meth:`Simulator.call_soon` — run a callback at the current instant,
  after the currently executing event (FIFO);
* :meth:`Simulator.rearm` — ``handle.cancel()`` plus ``schedule``, in
  one call that moves a pending handle to a later deadline in place;
* :meth:`Simulator.run` / :meth:`run_until` — drive the event loop
  (``run(max_events=1)`` executes one event);
* :meth:`Simulator.release` — drop every pending event once a run is
  over;
* :attr:`Simulator.now` — the clock, and :attr:`current_seq`, the
  executing event's place: plain attributes that only the event loop
  writes.

Division of labour with :mod:`repro.sim.events`: the simulator owns
the heap, the sequence counter and the count of cancelled entries, and
does every push, pop and compaction itself; an
:class:`~repro.sim.events.EventHandle` is the cancellable entry behind
``schedule`` / ``schedule_at`` / ``call_soon`` and points back at its
simulator while pending, so that cancelling it is counted here.  Heap
entries are ``(time, seq, handle, _HANDLE)``, ``_HANDLE`` being this
module's sentinel, or the handle-free ``(time, seq, callback, args)``:
one identity test on the last element tells them apart, and ``(time,
seq)`` is unique, so comparisons never reach the third element.

**Heap compaction.**  Cancelled handle entries normally leave the heap
lazily, when they surface at the top.  Under cancel-heavy load (churn
tearing down circuits cancels many timers) the garbage can outnumber
the live entries; once it does, the heap is rebuilt in place — filter
plus ``heapify`` — so memory and per-op cost stay O(live events), not
O(events ever scheduled).  The simulator counts its *dead* entries,
not its live ones: pushes and pops of live events — all the hot path
ever does — touch no counter.

The fast-path contract: ``schedule_fast`` events cannot be cancelled
and return no handle, but fire with exactly the same deterministic
(time, seq) FIFO ordering as ``schedule`` events — both draw from one
sequence counter, so mixing the two paths never reorders simultaneous
events.

The deferred-event contract: a number from ``reserve_seq`` stands for
an event that *may* be scheduled at some time ``t``.  As long as
``now < t`` — or ``now == t`` and ``current_seq`` is still below the
reserved number — ``push((t, seq, callback, args))`` puts the event
exactly where one scheduled at reservation time would sit.  Once the
loop is past that place the event would already have fired, and the
caller acts on the spot instead.  ``push`` is ``heappush`` on the
event heap, a C call that checks nothing: the caller guarantees a
finite ``t`` no earlier than ``now`` (the loop raises
:class:`ClockError` on an earlier one, before popping it) and a ``seq``
it drew from ``reserve_seq`` and uses once.  :class:`~repro.net.link.Interface`
pushes every delivery and wake this way, so that a link transmission
costs one event (the delivery) unless a second packet arrives while
the first is on the wire.

The re-arm contract: ``rearm(handle, delay, callback, *args)`` returns
a handle that fires exactly where ``handle.cancel()`` followed by
``schedule(delay, callback, *args)`` would have put the event — it
draws the same sequence number at the same point of the run, so every
event keeps its ``(time, seq)`` and :attr:`events_executed` and
:attr:`pending_events` do not change.  When *handle* is pending and the
new deadline is no earlier than its current one, the handle itself is
returned with its ``time`` and ``seq`` rewritten: its heap entry stays
where it is, and when that entry surfaces under its old ``seq`` the
loop pushes it again at the handle's due place.  That move is not an
event; like a cancelled entry surfacing, it counts toward neither
:attr:`events_executed` nor *max_events*.  An earlier deadline, or a
fired or cancelled handle, takes the cancel + ``schedule`` path and
returns a new handle.  A retransmission timer pushed back on every
cell sent thus costs no heap operation per cell.

Every delay, time, start time and ``run_until`` deadline the checked
API takes must be finite: an infinite one would leave the clock there.

The simulator replaces ns-3 as the substrate the paper's evaluation ran
on: CircuitStart's behaviour depends only on event timing, which a
calendar-queue DES reproduces exactly.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

from .errors import ClockError, SchedulingError
from .events import EventHandle, _noop

__all__ = ["Simulator"]

_INF = float("inf")

#: The last element of every handle entry: marks ``entry[2]`` as an
#: :class:`EventHandle` (a handle-free entry ends in its args tuple).
_HANDLE = object()


class Simulator:
    """A deterministic discrete-event simulator with a float clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    #: Compaction only kicks in once at least this many dead entries
    #: have accumulated — rebuilding a ten-entry heap is noise.
    _COMPACT_MIN_DEAD = 64

    def __init__(self, start_time: float = 0.0) -> None:
        if not 0 <= start_time < _INF:  # also NaN
            raise ClockError("start time must be in [0, inf), got %r" % start_time)
        #: Current simulated time in seconds.  Read-only for everyone
        #: but the event loop; a plain attribute because every layer
        #: reads it about twice per event.
        self.now = float(start_time)
        self._heap: List[Tuple[Any, ...]] = []
        self._counter = count()
        # Cancelled handle entries still sitting in the heap.
        self._dead = 0
        #: Sequence number of the event being executed, read-only for
        #: everyone but the event loop.  Between events it keeps the last
        #: executed event's number; once a run has executed everything it
        #: was asked to, it moves past every number drawn so far.  Either
        #: way, an event reserved under *seq* for the current instant
        #: would already have fired exactly when ``current_seq > seq``.
        #: A plain attribute, like ``now``: a link reads it per send.
        self.current_seq = -1
        #: ``reserve_seq()`` draws the next sequence number for an event
        #: decided on later (see the deferred-event contract above).
        #: Bound straight to the counter: a link calls it per packet.
        self.reserve_seq: Callable[[], int] = self._counter.__next__
        #: ``push((time, seq, callback, args))`` puts a handle-free event
        #: at a place drawn from ``reserve_seq`` (the deferred-event
        #: contract above): ``heappush`` on the heap, adding no frame.
        self.push: Callable[[tuple], None] = partial(heappush, self._heap)
        self._running = False
        self._events_executed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live events waiting in the heap."""
        return len(self._heap) - self._dead

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule *callback(\\*args)* to run *delay* seconds from now."""
        if not 0 <= delay < _INF:  # also NaN
            raise SchedulingError("delay must be in [0, inf), got %r" % delay)
        return self._push_handle(self.now + delay, callback, args)

    def schedule_fast(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule *callback(\\*args)* after *delay* seconds, handle-free.

        The variant of :meth:`schedule` for events that are never
        cancelled: no :class:`EventHandle` is allocated and none
        is returned.  Ordering is identical to :meth:`schedule` — both
        paths share one (time, seq) counter.
        """
        if not 0 <= delay < _INF:  # also NaN
            raise SchedulingError("delay must be in [0, inf), got %r" % delay)
        heappush(
            self._heap, (self.now + delay, next(self._counter), callback, args)
        )

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule *callback(\\*args)* at absolute simulated *time*."""
        if not self.now <= time < _INF:  # also NaN
            raise SchedulingError("cannot schedule at %r (now %r)" % (time, self.now))
        return self._push_handle(time, callback, args)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule *callback(\\*args)* at the current instant.

        The callback runs after every event already scheduled for
        :attr:`now` (FIFO tie-breaking), which makes ``call_soon`` safe
        for "after this packet is processed" continuations.
        """
        return self._push_handle(self.now, callback, args)

    def rearm(
        self,
        handle: EventHandle,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Cancel *handle* and schedule *callback(\\*args)* after *delay*.

        Returns the handle of the new event: *handle* itself, moved in
        place, when it was pending and the new deadline is no earlier
        than its old one; a new handle otherwise (see the re-arm
        contract above).
        """
        if not 0 <= delay < _INF:  # also NaN
            raise SchedulingError("delay must be in [0, inf), got %r" % delay)
        time = self.now + delay
        if handle._sim is None or time < handle.time:
            handle.cancel()
            return self._push_handle(time, callback, args)
        handle.time = time
        handle.seq = next(self._counter)
        handle.callback = callback
        handle.args = args
        return handle

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel *handle*; return whether it was still pending.

        Equivalent to ``handle.cancel()``: the handle itself reports the
        dead entry to its simulator, so both spellings agree.
        """
        return handle.cancel()

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or *max_events* executed)."""
        self._run_loop(until=None, max_events=max_events)

    def run_until(self, time: float, max_events: Optional[int] = None) -> None:
        """Run events with timestamps <= *time*, then set the clock to *time*.

        Events scheduled exactly at *time* do fire.  The clock ends at
        *time* when the loop ran to completion (queue drained or only
        later events remain), so subsequent ``run_until`` calls compose
        naturally.  When *max_events* halts the loop early, the clock
        stays at the last executed event:
        advancing it past still-pending events would make those events
        "in the past" and raise a spurious :class:`ClockError` on the
        next run.
        """
        if not self.now <= time < _INF:  # also NaN
            raise ClockError("cannot run until %r (now %r)" % (time, self.now))
        completed = self._run_loop(until=time, max_events=max_events)
        if completed:
            self.now = max(self.now, time)

    def release(self) -> None:
        """Drop every pending event: the run is over.

        Pending events are what tie a finished run's objects to each
        other through the simulator (callbacks bound to links, hosts
        and timers); dropping them lets reference counting free the
        run.  Each live handle ends cancelled and no longer holds its
        callback, so a timer its owner still references (``owner ->
        handle -> bound method -> owner``) stops being a reference
        cycle.  The clock and :attr:`events_executed` stay readable.
        """
        for entry in self._heap:
            if entry[3] is _HANDLE:
                handle = entry[2]
                handle._cancelled = True
                handle._sim = None
                handle.callback = _noop
                handle.args = ()
        self._heap.clear()
        self._dead = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _push_handle(
        self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]
    ) -> EventHandle:
        """Push *callback(\\*args)* at a checked absolute *time*; return its handle."""
        handle = EventHandle(time, next(self._counter), callback, args, self)
        heappush(self._heap, (time, handle.seq, handle, _HANDLE))
        return handle

    def _note_handle_cancelled(self) -> None:
        """One pending handle entry in the heap was cancelled.

        Once dead entries outnumber the live ones, the heap is compacted
        in place — filter out the garbage, then re-heapify.  In-place
        slice assignment matters: :attr:`push` is bound to the list.
        """
        dead = self._dead = self._dead + 1
        heap = self._heap
        if dead > len(heap) - dead and dead >= self._COMPACT_MIN_DEAD:
            heap[:] = [e for e in heap if e[3] is not _HANDLE or not e[2]._cancelled]
            heapify(heap)
            self._dead = 0

    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> bool:
        """Drive the loop; return whether it ran to completion.

        ``True`` means the queue drained or only events beyond *until*
        remain; ``False`` means *max_events* halted it with eligible
        events still pending.
        """
        if self._running:
            raise SchedulingError("simulator loop is not reentrant")
        self._running = True
        # Inlined, with locals for the heap, the clock and the bounds: it
        # runs once per event.  One straight branch per entry shape; each
        # tests the budget before the deadline, and only once dead and
        # re-armed entries at the top are gone.  ``while True`` makes the
        # back edge unconditional: CPython 3.11 specializes code after 8
        # calls or 8 such jumps, and a ``while heap:`` loop entered once
        # per run would run a process's first 7 runs unspecialized.
        heap = self._heap
        now = self.now
        limit = _INF if until is None else until
        executed = self._events_executed
        stop = _INF if max_events is None else executed + max_events
        try:
            while True:
                if not heap:
                    break
                entry = heap[0]
                if entry[3] is _HANDLE:
                    handle = entry[2]
                    if handle._cancelled:
                        heappop(heap)  # dead entry surfacing
                        self._dead -= 1
                        continue
                    if handle.seq != entry[1]:
                        # Re-armed since it was pushed: move the entry
                        # to the handle's due place (not an event).
                        heapreplace(heap, (handle.time, handle.seq, handle, _HANDLE))
                        continue
                    if executed >= stop:
                        return False
                    time = entry[0]
                    if time > limit:
                        break
                    if time < now:
                        raise ClockError("event at %r is in the past (now %r)" % (time, now))
                    heappop(heap)
                    self.now = now = time
                    self.current_seq = entry[1]
                    self._events_executed = executed = executed + 1
                    handle._sim = None
                    handle.callback(*handle.args)
                    continue
                if executed >= stop:
                    return False
                time = entry[0]
                if time > limit:
                    break
                if time < now:
                    raise ClockError("event at %r is in the past (now %r)" % (time, now))
                heappop(heap)
                self.now = now = time
                self.current_seq = entry[1]
                self._events_executed = executed = executed + 1
                entry[2](*entry[3])
        finally:
            self._running = False
        if executed < stop:
            # Everything due has fired, including any event merely
            # *reserved* so far: step past every number drawn, so that
            # code running between runs sees those reservations as gone
            # by.  A run that used up max_events may have stopped just
            # short of one, and does not.
            self.current_seq = next(self._counter)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Simulator now=%.6f pending=%d executed=%d>" % (
            self.now,
            self.pending_events,
            self._events_executed,
        )
