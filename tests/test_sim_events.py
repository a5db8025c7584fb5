"""Unit and property tests for event ordering and cancellation.

:class:`~repro.sim.simulator.Simulator` owns the heap, the sequence
counter, the dead-entry count and compaction, and does every push and
pop itself; :class:`~repro.sim.events.EventHandle` is the cancellable
entry.  Everything is therefore driven through the simulator —
``schedule`` / ``schedule_fast`` / ``reserve_seq`` + ``push`` in,
``run`` / ``run_until`` out — so the properties hold for the loop
production executes.  A handle is pending while it points back at its
simulator (``_sim``), cancelled when ``_cancelled`` is set, and fired
when neither holds.  ``Simulator.rearm`` is checked against the
cancel + ``schedule`` pair it stands for.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.errors import ClockError, SchedulingError
from repro.sim.simulator import Simulator


def test_empty_queue_has_no_events():
    sim = Simulator()
    assert sim.pending_events == 0
    assert sim._heap == [] and sim._dead == 0
    sim.run(max_events=1)
    assert sim.events_executed == 0


def test_events_pop_in_time_order():
    sim = Simulator()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_same_time_events_pop_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_nan_time_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule_at(float("nan"), lambda: None)
    with pytest.raises(SchedulingError):
        sim.schedule(float("nan"), lambda: None)
    assert sim._heap == []


def test_handle_starts_pending():
    sim = Simulator()
    h = sim.schedule_at(1.0, lambda: None)
    assert h._sim is sim and not h._cancelled
    assert sim.pending_events == 1


def test_cancel_marks_handle():
    sim = Simulator()
    h = sim.schedule_at(1.0, lambda: None)
    assert h.cancel()
    assert h._cancelled and h._sim is None
    assert sim.pending_events == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    h = sim.schedule_at(1.0, lambda: None)
    assert h.cancel()
    assert not h.cancel()
    assert sim._dead == 1


def test_cancelled_events_are_skipped():
    sim = Simulator()
    fired = []
    h1 = sim.schedule(1.0, fired.append, "first")
    sim.schedule(2.0, fired.append, "second")
    h1.cancel()
    sim.run(max_events=1)
    assert (sim.now, fired) == (2.0, ["second"])
    assert sim.pending_events == 0


def test_cancel_drops_callback_reference():
    sim = Simulator()
    payload = object()
    h = sim.schedule_at(1.0, lambda x: None, payload)
    h.cancel()
    assert h.args == ()


def test_fire_runs_callback_with_args():
    sim = Simulator()
    out = []
    # Detached before the callback runs: it sees itself as spent.
    h = sim.schedule(1.0, lambda tag: out.append((tag, h._sim)), "x")
    sim.run()
    assert out == [("x", None)]
    assert h._sim is None and not h._cancelled


def test_fired_handle_cannot_cancel():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.run()
    assert not h.cancel()
    assert not h._cancelled


def test_len_tracks_cancellations():
    sim = Simulator()
    handles = [sim.schedule_at(float(i), lambda: None) for i in range(5)]
    for h in handles[:2]:
        sim.cancel(h)
    assert sim.pending_events == 3
    assert (len(sim._heap), sim._dead) == (5, 2)


def test_fast_path_push_and_pop():
    sim = Simulator()
    fired = []
    sim.schedule_fast(2.0, lambda: fired.append(sim.now))
    sim.schedule_fast(1.0, lambda: fired.append(sim.now))
    assert sim.pending_events == 2
    sim.run()
    assert fired == [1.0, 2.0]
    assert sim.pending_events == 0


def test_fast_path_nan_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule_fast(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_fast_and_handle_paths_share_fifo_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule_fast(1.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "c")
    sim.schedule_fast(1.0, fired.append, "d")
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_reserved_push_fires_where_it_was_reserved():
    sim = Simulator()
    fired = []
    sim.schedule_fast(1.0, fired.append, "before")
    seq = sim.reserve_seq()
    sim.schedule_fast(1.0, fired.append, "after")
    sim.schedule(0.5, fired.append, "earlier")
    assert sim.pending_events == 3  # a reservation alone is not an event
    sim.push((1.0, seq, fired.append, ("reserved",)))
    assert sim.pending_events == 4
    sim.run()
    assert fired == ["earlier", "before", "reserved", "after"]


def test_direct_handle_cancel_updates_live_count():
    """EventHandle.cancel() alone must keep the live count honest (no
    Simulator.cancel call needed)."""
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i), fired.append, i) for i in range(4)]
    handles[0].cancel()
    assert sim.pending_events == 3
    sim.run(max_events=1)
    assert fired == [1]


def test_cancel_after_pop_does_not_corrupt_live_count():
    """The loop detaches a handle as it pops it: cancelling it from its
    own callback, or afterwards, is refused and counts nothing dead."""
    sim = Simulator()
    refused = []
    handle = sim.schedule(1.0, lambda: refused.append(handle.cancel()))
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)
    assert refused == [False]
    assert sim.pending_events == 1
    assert not handle.cancel()
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_pop_order_is_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule_at(t, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(times)


@given(
    st.lists(
        st.tuples(st.sampled_from([1.0, 2.0, 3.0]), st.integers(0, 999)),
        min_size=1,
        max_size=100,
    )
)
def test_property_stable_within_equal_times(entries):
    """Events at equal timestamps preserve their insertion order."""
    sim = Simulator()
    fired = []
    for t, tag in entries:
        sim.schedule_at(t, lambda tag=tag: fired.append((sim.now, tag)))
    sim.run()
    for time_value in (1.0, 2.0, 3.0):
        expected = [tag for t, tag in entries if t == time_value]
        got = [tag for t, tag in fired if t == time_value]
        assert got == expected


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=80),
    st.sets(st.integers(0, 79)),
)
def test_property_cancelled_never_pop(times, cancel_indices):
    sim = Simulator()
    fired = []
    handles = [sim.schedule_at(t, fired.append, i) for i, t in enumerate(times)]
    cancelled = set()
    for i in cancel_indices:
        if i < len(handles) and handles[i].cancel():
            cancelled.add(i)
    assert sim.pending_events == len(handles) - len(cancelled)
    sim.run()
    assert not (set(fired) & cancelled)
    assert len(fired) == len(handles) - len(cancelled)


# ----------------------------------------------------------------------
# Property test over arbitrary interleavings of all scheduling paths.
#
# Operations are interpreted against a simple reference model: a list of
# (time, seq, tag) entries sorted by (time, seq).  The simulator must
# agree with the model on the live count and on the exact (time, seq)-
# stable order of everything that fires — for handle events, fast
# events, reserved pushes (which enter under a sequence number drawn
# earlier, and are refused once the loop is past their place), re-arms
# and cancellations — and, after every operation, on the clock,
# ``current_seq`` and ``events_executed``, with single steps and runs
# bounded by a deadline, an event budget or both in any interleaving.
# ----------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "push", "push_fast", "reserve", "push_reserved", "pop", "cancel",
            "rearm", "run_until", "run_max", "run_until_max",
        ]),
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        st.integers(0, 999),
    ),
    max_size=120,
)


@given(_ops)
# A budget used up with only a cancelled entry left at the top: the
# loop drops it, ends with an empty heap and counts the run complete
# (the clock moves to the deadline), but steps past no reservation.
@example([("push", 1.0, 0), ("push", 2.0, 1), ("cancel", 0.0, 1),
          ("run_until_max", 3.0, 1)])
# The same with a re-armed entry at the top: it moves to its new place,
# the live event there stops the run short, and the clock stays put.
@example([("push", 1.0, 0), ("push", 1.0, 1), ("rearm", 2.0, 1),
          ("run_until_max", 3.0, 1)])
def test_property_mixed_paths_order_and_accounting(ops):
    sim = Simulator()
    model = []      # live entries: (time, seq, tag)
    handles = {}    # seq -> handle (handle-path entries only)
    reserved = []   # drawn but not yet pushed: (time, seq, tag)
    fired = []      # what the simulator ran: (now, tag)
    expected = []   # what the model says it should have run
    seq = 0         # the next number the sequence counter hands out
    now = 0.0
    current = -1    # the model's current_seq
    executed = 0

    def note(tag):
        fired.append((sim.now, tag))

    def drive(until=None, max_events=None):
        """What a run bounded by *until* and *max_events* does."""
        nonlocal seq, now, current, executed
        model.sort()
        due = [e for e in model if until is None or e[0] <= until]
        ran = due if max_events is None else due[:max_events]
        del model[:len(ran)]
        expected.extend((time, tag) for time, __s, tag in ran)
        executed += len(ran)
        if ran:
            now, current = ran[-1][0], ran[-1][1]
        # The budget is tested before the deadline: a run that used it
        # up with any live event left (due or not) stopped short.
        under_budget = max_events is None or len(ran) < max_events
        if under_budget:
            current = seq  # stepped past every number drawn so far
            seq += 1
        if until is not None and (under_budget or not model):
            now = max(now, until)

    for op, delay, tag in ops:
        time = sim.now + delay
        if op == "push":
            handles[seq] = sim.schedule(delay, note, tag)
            model.append((time, seq, tag))
            seq += 1
        elif op == "push_fast":
            sim.schedule_fast(delay, note, tag)
            model.append((time, seq, tag))
            seq += 1
        elif op == "reserve":
            assert sim.reserve_seq() == seq
            reserved.append((time, seq, tag))
            seq += 1
        elif op == "push_reserved":
            if reserved:
                entry = reserved.pop(tag % len(reserved))
                # Past that place an event there would already have
                # fired: the caller acts on the spot and pushes nothing.
                if entry[:2] > (now, current):
                    sim.push((entry[0], entry[1], note, (entry[2],)))
                    model.append(entry)
        elif op == "pop":
            # One event at a time, as a single-step loop takes it.
            if sim.pending_events:
                sim.run(max_events=1)
                drive(max_events=1)
        elif op in ("cancel", "rearm"):
            # Cancel or re-arm the live handle-path event selected by
            # `tag`; a re-arm stands for cancel + schedule.
            live_handles = [
                s for (__, s, __t) in model if s in handles
            ]
            if live_handles:
                chosen = live_handles[tag % len(live_handles)]
                model = [e for e in model if e[1] != chosen]
                if op == "cancel":
                    assert handles[chosen].cancel()
                else:
                    handles[seq] = sim.rearm(handles[chosen], delay, note, tag)
                    model.append((time, seq, tag))
                    seq += 1
        elif op == "run_until":
            sim.run_until(time)
            drive(until=time)
        elif op == "run_max":
            sim.run(max_events=tag % 4)
            drive(max_events=tag % 4)
        elif op == "run_until_max":
            sim.run_until(time, max_events=tag % 4)
            drive(until=time, max_events=tag % 4)
        assert sim.pending_events == len(model)
        assert fired == expected
        assert (sim.now, sim.current_seq, sim.events_executed) == (
            now, current, executed
        )
        assert not sim._running

    model.sort()
    sim.run()
    assert fired == expected + [(time, tag) for (time, __s, tag) in model]
    assert sim.pending_events == 0
    assert sim.events_executed == executed + len(model)


def test_spent_budget_drops_dead_entries_at_the_top():
    """Once *max_events* is used up, cancelled and re-armed entries at
    the top still leave it before the run stops: a budget that ran out
    exactly as the last live event fired counts as a completed run."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "dead").cancel()
    moved = sim.schedule(1.5, fired.append, "moved")
    sim.rearm(moved, 3.0, fired.append, "moved")
    sim.run(max_events=1)
    # The dead entry is gone; the re-armed one moved and stopped the run.
    assert (fired, sim.events_executed, sim.current_seq) == (["a"], 1, 0)
    assert (len(sim._heap), sim._dead, sim.pending_events) == (1, 0, 1)
    assert sim._heap[0][0] == 3.0
    moved.cancel()
    sim.run_until(5.0, max_events=0)
    # Only a dead entry was left: the heap empties and the clock moves
    # to the deadline, but no reservation is stepped past.
    assert (sim._heap, sim._dead, sim.now, sim.current_seq) == ([], 0, 5.0, 0)


def test_events_executed_is_exact_inside_callbacks():
    sim = Simulator()
    seen = []

    def note():
        seen.append(sim.events_executed)

    sim.schedule(1.0, note)
    sim.schedule_fast(1.0, note)
    sim.schedule_at(2.0, note)
    sim.run()
    assert seen == [1, 2, 3]
    sim.schedule_fast(1.0, note)
    sim.run_until(sim.now + 1.0)
    assert seen == [1, 2, 3, 4]


def test_pushed_entry_in_the_past_raises_and_stays_pending():
    """``push`` checks nothing; the loop refuses an entry behind the
    clock before popping it, so nothing runs and it stays pending."""
    sim = Simulator()
    fired = []
    sim.run_until(1.0)
    sim.push((0.5, sim.reserve_seq(), fired.append, ("late",)))
    for run in (sim.run, lambda: sim.run(max_events=1),
                lambda: sim.run_until(2.0)):
        with pytest.raises(ClockError):
            run()
        assert (fired, sim.now, sim.events_executed) == ([], 1.0, 0)
        assert sim.pending_events == 1 and not sim._running


# ----------------------------------------------------------------------
# Heap compaction under cancel-heavy load
# ----------------------------------------------------------------------


def test_compaction_keeps_heap_proportional_to_live_events():
    # Cancel-heavy regression: without compaction the heap retains one
    # dead 3-tuple per cancelled event until its time is reached, so a
    # workload that schedules and cancels N timers (retransmission
    # timers, departure watchdogs) holds O(N) memory while only O(live)
    # events are real.  Compaction bounds the heap at O(live).
    sim = Simulator()
    live = []
    fired = []
    for wave in range(20):
        handles = [
            sim.schedule_at(1.0 + wave + i * 1e-6, fired.append, (wave, i))
            for i in range(500)
        ]
        for i, h in enumerate(handles):
            if i % 100:  # keep 5 of each 500
                assert h.cancel()
            else:
                live.append((wave, i))
        # The invariant after every cancel: dead entries never exceed
        # max(live entries, compaction threshold).
        assert len(sim._heap) <= 2 * sim.pending_events + sim._COMPACT_MIN_DEAD
        assert sim._dead <= max(sim.pending_events, sim._COMPACT_MIN_DEAD)
    assert sim.pending_events == len(live)
    # Everything still fires in order, dead entries never surface.
    sim.run()
    assert fired == live
    assert sim._heap == [] and sim._dead == 0


def test_same_timestamp_fifo_survives_compaction():
    # Cancellation-triggered compaction re-heapifies; fast-path entries
    # sharing one timestamp must still fire in push order afterwards.
    sim = Simulator()
    order = []
    handles = [sim.schedule(5.0, order.append, "late") for __ in range(200)]
    for i in range(10):
        sim.schedule_fast(1.0, order.append, i)  # all at one timestamp
    for h in handles[:-1]:
        h.cancel()
    assert len(sim._heap) < len(handles)  # compacted on the way
    assert sim._dead < len(handles) - 1
    sim.run()
    # The t=1.0 entries fired first, in FIFO order, then the one
    # surviving handle event; dead entries never surfaced.
    assert order == list(range(10)) + ["late"]
    assert sim.events_executed == 11


# ----------------------------------------------------------------------
# Re-arm: Simulator.rearm against cancel + schedule
# ----------------------------------------------------------------------


def test_later_rearm_moves_the_handle_in_place():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "old")
    heap_size = len(sim._heap)
    assert sim.rearm(handle, 2.0, fired.append, "new") is handle
    assert len(sim._heap) == heap_size  # no push, no dead entry
    assert handle._sim is sim and sim.pending_events == 1
    sim.run_until(1.5)  # the old place surfaces: a move, not an event
    assert (fired, sim.events_executed, sim.pending_events) == ([], 0, 1)
    sim.run()
    assert (sim.now, fired, sim.events_executed) == (2.0, ["new"], 1)
    assert handle._sim is None and not handle._cancelled


def test_earlier_or_spent_rearm_takes_a_new_handle():
    sim = Simulator()
    fired = []
    handle = sim.schedule(2.0, fired.append, "late")
    earlier = sim.rearm(handle, 1.0, fired.append, "early")
    assert earlier is not handle and handle._cancelled and earlier._sim is sim
    sim.run()
    assert fired == ["early"]
    again = sim.rearm(earlier, 1.0, fired.append, "again")  # fired handle
    assert again is not earlier and again._sim is sim
    again.cancel()
    revived = sim.rearm(again, 0.5, fired.append, "revived")  # cancelled
    assert revived is not again
    sim.run()
    assert fired == ["early", "revived"]
    with pytest.raises(SchedulingError):
        sim.rearm(revived, -1.0, fired.append)
    with pytest.raises(SchedulingError):
        sim.rearm(revived, float("nan"), fired.append)


def test_cancel_after_a_deferred_rearm_leaves_no_live_event():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.rearm(handle, 3.0, lambda: None)
    assert handle.cancel()
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_executed == 0 and sim._heap == []


class _World:
    """One simulator, three re-armable timers and a fired log.

    ``deferred`` worlds re-arm through :meth:`Simulator.rearm`; the
    reference world cancels and schedules, as callers did before it.
    """

    TIMERS = 3

    def __init__(self, deferred):
        self.sim = Simulator()
        self.deferred = deferred
        self.timers = [None] * self.TIMERS
        self.log = []

    def fire(self, label):
        self.log.append((label, self.sim.now, self.sim.current_seq))

    def rearm(self, index, delay):
        handle = self.timers[index]
        label = "timer%d" % index
        if handle is None:
            handle = self.sim.schedule(delay, self.fire, label)
        elif self.deferred:
            handle = self.sim.rearm(handle, delay, self.fire, label)
        else:
            handle.cancel()
            handle = self.sim.schedule(delay, self.fire, label)
        self.timers[index] = handle

    def fire_and_rearm(self, index, delay):
        # A timer pushed back from inside a running event, the way a
        # hop sender re-arms on feedback.
        self.fire("fast")
        self.rearm(index, delay)

    def apply(self, op, index, delay):
        sim = self.sim
        if op == "rearm":
            self.rearm(index, delay)
        elif op == "cancel":
            if self.timers[index] is not None:
                self.timers[index].cancel()
        elif op == "fast":
            sim.schedule_fast(delay, self.fire, "fast")
        elif op == "fast_rearm":
            sim.schedule_fast(delay, self.fire_and_rearm, index, delay)
        elif op == "run_until":
            sim.run_until(sim.now + delay)
        elif op == "step":
            if sim.pending_events:
                sim.run(max_events=1)

    def state(self):
        sim = self.sim
        return (list(self.log), sim.now, sim.current_seq,
                sim.events_executed, sim.pending_events)


_rearm_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["rearm", "rearm", "cancel", "fast", "fast_rearm", "run_until",
             "step"]
        ),
        st.integers(0, _World.TIMERS - 1),
        # Few, exactly representable delays: re-arms land earlier than,
        # on, and later than a timer's deadline, and on fast events.
        st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_rearm_ops)
# A later re-arm must draw a fresh sequence number: keeping the old one
# fires timer0 at its old deadline of 0.5, not at 1.0.
@example([("rearm", 0, 0.5), ("rearm", 0, 1.0), ("step", 0, 0.0)])
def test_property_rearm_matches_cancel_and_schedule(ops):
    world, reference = _World(deferred=True), _World(deferred=False)
    for op in ops:
        world.apply(*op)
        reference.apply(*op)
        assert world.state() == reference.state()
    world.sim.run()
    reference.sim.run()
    assert world.state() == reference.state()
    assert world.sim.pending_events == 0
