"""Unit tests for the simulator core (repro.sim.simulator)."""

from __future__ import annotations

import pytest

from repro.sim.errors import ClockError, SchedulingError
from repro.sim.simulator import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_negative_start_time_rejected():
    with pytest.raises(ClockError):
        Simulator(start_time=-1.0)


def test_nan_start_time_rejected():
    with pytest.raises(ClockError):
        Simulator(start_time=float("nan"))


def test_schedule_and_run_advances_clock(sim):
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run()
    assert sim.now == 1.5
    assert fired == ["a"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(0.5, lambda: None)


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(2.0, order.append, 2)
    sim.schedule(1.0, order.append, 1)
    sim.schedule(3.0, order.append, 3)
    sim.run()
    assert order == [1, 2, 3]


def test_simultaneous_events_run_fifo(sim):
    order = []
    for i in range(5):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(5))


def test_call_soon_runs_at_current_time(sim):
    stamps = []
    sim.schedule(1.0, lambda: sim.call_soon(stamps.append, sim.now))
    sim.run()
    assert stamps == [1.0]


def test_run_until_stops_at_boundary(sim):
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run_until(2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    assert sim.pending_events == 1


def test_run_until_includes_boundary_events(sim):
    fired = []
    sim.schedule(2.0, fired.append, "boundary")
    sim.run_until(2.0)
    assert fired == ["boundary"]


def test_run_until_sets_clock_even_when_queue_empty(sim):
    sim.run_until(3.0)
    assert sim.now == 3.0


def test_run_until_backwards_rejected(sim):
    sim.run_until(2.0)
    with pytest.raises(ClockError):
        sim.run_until(1.0)


def test_nan_run_time_rejected(sim):
    """A NaN deadline compares false both ways: it must not run the
    heap dry and then leave the clock where the last event put it."""
    fired = []
    sim.schedule(1.0, fired.append, "a")
    with pytest.raises(ClockError):
        sim.run_until(float("nan"))
    assert (sim.now, fired, sim.pending_events) == (0.0, [], 1)


_INF = float("inf")


def test_infinite_start_time_rejected():
    with pytest.raises(ClockError):
        Simulator(start_time=_INF)


def _assert_clock_still_usable(sim):
    """The clock stays finite and the next ``run_until`` still runs: an
    infinite clock refused every later one."""
    sim.run()
    assert sim.now < _INF
    deadline = sim.now + 1.0
    sim.run_until(deadline)
    assert sim.now == deadline


@pytest.mark.parametrize(
    "schedule",
    [
        lambda sim, cb: sim.schedule(_INF, cb),
        lambda sim, cb: sim.schedule_fast(_INF, cb),
        lambda sim, cb: sim.schedule_at(_INF, cb),
        lambda sim, cb: sim.rearm(sim.schedule(0.5, lambda: None), _INF, cb),
    ],
    ids=["schedule", "schedule_fast", "schedule_at", "rearm"],
)
def test_infinite_event_time_rejected(sim, schedule):
    refused = []
    sim.run_until(1.0)
    with pytest.raises(SchedulingError):
        schedule(sim, lambda: refused.append(sim.now))
    _assert_clock_still_usable(sim)
    assert refused == []


def test_infinite_run_time_rejected(sim):
    """``run_until(inf)`` after the queue drains would set the clock to
    infinity; it is refused before anything runs."""
    fired = []
    sim.schedule(1.0, fired.append, "a")
    with pytest.raises(ClockError):
        sim.run_until(_INF)
    assert (sim.now, fired, sim.pending_events) == (0.0, [], 1)
    _assert_clock_still_usable(sim)
    assert (sim.now, fired) == (2.0, ["a"])


def test_step_executes_single_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.run(max_events=1)
    assert (fired, sim.now, sim.pending_events) == ([1], 1.0, 1)
    sim.run(max_events=1)
    assert (fired, sim.pending_events) == ([1, 2], 0)


def test_events_can_schedule_more_events(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 5.0


def test_cancel_via_simulator(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    assert sim.cancel(handle)
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_cancel_twice_reports_false(sim):
    handle = sim.schedule(1.0, lambda: None)
    assert sim.cancel(handle)
    assert not sim.cancel(handle)


def test_max_events_bounds_execution(sim):
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_executed_counter(sim):
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_schedule_fast_runs_like_schedule(sim):
    fired = []
    sim.schedule_fast(2.0, fired.append, "b")
    sim.schedule_fast(1.0, fired.append, "a")
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 2.0
    assert sim.events_executed == 2


def test_schedule_fast_returns_no_handle(sim):
    assert sim.schedule_fast(1.0, lambda: None) is None


def test_schedule_fast_negative_delay_rejected(sim):
    with pytest.raises(SchedulingError):
        sim.schedule_fast(-0.1, lambda: None)


def test_mixed_paths_preserve_fifo_at_same_instant(sim):
    """The fast-path contract: schedule and schedule_fast share one
    sequence counter, so simultaneous events fire in schedule order."""
    order = []
    sim.schedule(1.0, order.append, "h1")
    sim.schedule_fast(1.0, order.append, "f1")
    sim.schedule(1.0, order.append, "h2")
    sim.schedule_fast(1.0, order.append, "f2")
    sim.run()
    assert order == ["h1", "f1", "h2", "f2"]


def test_fast_events_can_schedule_more_fast_events(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule_fast(1.0, chain, n + 1)

    sim.schedule_fast(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_step_executes_fast_events(sim):
    fired = []
    sim.schedule_fast(1.0, fired.append, 1)
    sim.schedule_fast(2.0, fired.append, 2)
    sim.run(max_events=1)
    assert (fired, sim.now, sim.pending_events) == ([1], 1.0, 1)


def test_direct_handle_cancel_agrees_with_simulator(sim):
    """Cancelling via the handle (not Simulator.cancel) must keep
    pending_events and the loop's idea of liveness in sync."""
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    assert handle.cancel()
    assert sim.pending_events == 0
    assert not sim.cancel(handle)  # idempotent across both spellings
    assert sim.pending_events == 0
    sim.run()
    assert fired == []


def test_run_until_with_max_events_keeps_pending_events_runnable(sim):
    """run_until must not advance the clock past events it did not get
    to execute (max_events), or the next run would raise ClockError."""
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run_until(10.0, max_events=2)
    assert fired == [0, 1]
    assert sim.now == 2.0  # clock parked at the last executed event
    assert sim.pending_events == 3
    sim.run_until(10.0)  # must not raise a spurious ClockError
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 10.0


def test_loop_not_reentrant(sim):
    def naughty():
        sim.run()

    sim.schedule(1.0, naughty)
    with pytest.raises(SchedulingError):
        sim.run()


def test_step_callback_cannot_reenter_run(sim):
    """A single-event run sets the reentrancy guard too: its callback
    can't start run() and interleave two loops over one queue."""
    caught = []

    def naughty():
        try:
            sim.run()
        except SchedulingError as error:
            caught.append(error)

    sim.schedule(1.0, naughty)
    sim.run(max_events=1)
    assert len(caught) == 1


def test_run_callback_cannot_step(sim):
    """A single-event run inside a run() callback raises instead of
    double-popping."""
    caught = []

    def naughty():
        try:
            sim.run(max_events=1)
        except SchedulingError as error:
            caught.append(error)

    sim.schedule(1.0, naughty)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert len(caught) == 1
    assert sim.now == 2.0  # the second event still fired, once


def test_step_callback_cannot_step_again(sim):
    """A nested single-event run from a single-event run's callback
    raises on that path too."""
    caught = []

    def naughty():
        try:
            sim.run(max_events=1)
        except SchedulingError as error:
            caught.append(error)

    sim.schedule(1.0, naughty)
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)
    assert len(caught) == 1
    assert sim.pending_events == 1  # the guard kept the queue intact


def _nested_run_refused(sim, drive):
    """Inside *drive*'s callback a nested run() is refused; once *drive*
    returns, the guard is down and the next run() goes ahead."""
    refused = []

    def nested():
        with pytest.raises(SchedulingError):
            sim.run()
        refused.append(sim.now)

    sim.schedule(1.0, nested)
    drive()
    sim.schedule(1.0, refused.append, "after")
    sim.run()
    return refused


def test_running_flag_during_step(sim):
    assert _nested_run_refused(sim, lambda: sim.run(max_events=1)) == [1.0, "after"]


def test_running_flag(sim):
    assert _nested_run_refused(sim, sim.run) == [1.0, "after"]


# ----------------------------------------------------------------------
# Deferred events: reserve_seq / push / current_seq
# ----------------------------------------------------------------------


def test_reserved_event_fires_where_it_was_reserved(sim):
    order = []
    sim.schedule_fast(1.0, order.append, "before")
    seq = sim.reserve_seq()
    sim.schedule_fast(1.0, order.append, "after")
    sim.push((1.0, seq, order.append, ("reserved",)))
    sim.run()
    assert order == ["before", "reserved", "after"]
    assert sim.events_executed == 3


def test_unused_reservation_costs_no_event(sim):
    sim.reserve_seq()
    sim.schedule_fast(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 1


def _tie_probe(sim, drive):
    """At t=1, which of two reservations has the loop already passed?

    ``early`` is drawn before, ``late`` after the event that looks."""
    seen = {}
    early = sim.reserve_seq()

    def look():
        seen["early_passed"] = sim.current_seq > early
        seen["late_passed"] = sim.current_seq > late

    sim.schedule(1.0, look)
    late = sim.reserve_seq()
    drive(sim)
    return seen


def _step_through(sim):
    while sim.pending_events:
        sim.run(max_events=1)


@pytest.mark.parametrize("drive", [Simulator.run, _step_through])
def test_current_seq_splits_a_tie_the_same_under_run_and_step(drive):
    assert _tie_probe(Simulator(), drive) == {
        "early_passed": True, "late_passed": False,
    }


def test_current_seq_moves_past_everything_once_a_run_completes(sim):
    assert sim.current_seq < sim.reserve_seq()  # nothing has run yet
    sim.schedule(1.0, lambda: None)
    inside = sim.reserve_seq()
    sim.run()
    assert sim.current_seq > inside
    # ... but not past what is drawn afterwards.
    assert sim.current_seq < sim.reserve_seq()


def test_current_seq_stays_put_when_a_run_halts_early(sim):
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    pending = sim.reserve_seq()
    sim.run(max_events=1)
    assert sim.current_seq == first.seq < pending
    sim.run()
    assert sim.current_seq > pending
