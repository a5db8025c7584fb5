"""Unit and property tests for the event queue (repro.sim.events)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.errors import SchedulingError
from repro.sim.events import EventQueue


def test_empty_queue_has_no_events():
    q = EventQueue()
    assert len(q) == 0
    assert not q
    assert q.peek_time() is None


def test_pop_from_empty_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()


def test_events_pop_in_time_order():
    q = EventQueue()
    q.push(3.0, lambda: None)
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    times = [q.pop().time for __ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_same_time_events_pop_fifo():
    q = EventQueue()
    handles = [q.push(1.0, lambda: None) for __ in range(10)]
    popped = [q.pop() for __ in range(10)]
    assert popped == handles


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(SchedulingError):
        q.push(float("nan"), lambda: None)


def test_handle_starts_pending():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    assert h.pending
    assert not h.cancelled
    assert not h.fired


def test_cancel_marks_handle():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    assert h.cancel()
    assert h.cancelled
    assert not h.pending


def test_cancel_is_idempotent():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    assert h.cancel()
    assert not h.cancel()


def test_cancelled_events_are_skipped():
    q = EventQueue()
    h1 = q.push(1.0, lambda: None)
    h2 = q.push(2.0, lambda: None)
    h1.cancel()
    assert q.peek_time() == 2.0
    assert q.pop() is h2


def test_cancel_drops_callback_reference():
    q = EventQueue()
    payload = object()
    h = q.push(1.0, lambda x: None, (payload,))
    h.cancel()
    assert h.args == ()


def test_fire_runs_callback_with_args():
    q = EventQueue()
    out = []
    h = q.push(1.0, out.append, ("x",))
    q.pop()._fire()
    assert out == ["x"]
    assert h.fired


def test_fired_handle_cannot_cancel():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    q.pop()._fire()
    assert not h.cancel()


def test_len_tracks_cancellations():
    q = EventQueue()
    handles = [q.push(float(i), lambda: None) for i in range(5)]
    for h in handles[:2]:
        h.cancel()
    assert len(q) == 3


def test_clear_cancels_everything():
    q = EventQueue()
    handles = [q.push(float(i), lambda: None) for i in range(5)]
    assert q.clear() == 5
    assert len(q) == 0
    assert all(h.cancelled for h in handles)


def test_fast_path_push_and_pop():
    q = EventQueue()
    q.push_fast(2.0, lambda: None)
    q.push_fast(1.0, lambda: None)
    assert len(q) == 2
    assert q.peek_time() == 1.0
    assert [q.pop().time for __ in range(2)] == [1.0, 2.0]
    assert not q


def test_fast_path_pop_wraps_in_detached_handle():
    q = EventQueue()
    out = []
    q.push_fast(1.0, out.append, ("x",))
    handle = q.pop()
    assert handle.pending
    handle._fire()
    assert out == ["x"]


def test_fast_path_nan_rejected():
    q = EventQueue()
    with pytest.raises(SchedulingError):
        q.push_fast(float("nan"), lambda: None)


def test_fast_and_handle_paths_share_fifo_order():
    q = EventQueue()
    q.push(1.0, lambda: None, ("a",))
    q.push_fast(1.0, lambda: None, ("b",))
    q.push(1.0, lambda: None, ("c",))
    q.push_fast(1.0, lambda: None, ("d",))
    assert [q.pop().args[0] for __ in range(4)] == ["a", "b", "c", "d"]


def test_reserved_push_fires_where_it_was_reserved():
    q = EventQueue()
    q.push_fast(1.0, lambda: None, ("before",))
    seq = q.reserve_seq()
    q.push_fast(1.0, lambda: None, ("after",))
    q.push(0.5, lambda: None, ("earlier",))
    assert len(q) == 3  # a reservation alone is not an event
    q.push_reserved(1.0, seq, lambda: None, ("reserved",))
    assert len(q) == 4
    assert [q.pop().args[0] for __ in range(4)] == [
        "earlier", "before", "reserved", "after",
    ]
    with pytest.raises(SchedulingError):
        q.push_reserved(float("nan"), q.reserve_seq(), lambda: None)


def test_pop_callback_returns_raw_triples():
    q = EventQueue()
    out = []
    q.push_fast(1.0, out.append, ("fast",))
    handle = q.push(2.0, out.append, ("handle",))
    time, callback, args = q.pop_callback()
    assert (time, args) == (1.0, ("fast",))
    callback(*args)
    time, callback, args = q.pop_callback()
    assert (time, args) == (2.0, ("handle",))
    assert handle.fired  # marked before the caller even invokes it
    with pytest.raises(IndexError):
        q.pop_callback()


def test_direct_handle_cancel_updates_live_count():
    """EventHandle.cancel() alone must keep len(queue) honest (no
    Simulator.cancel call needed)."""
    q = EventQueue()
    handles = [q.push(float(i), lambda: None) for i in range(4)]
    handles[0].cancel()
    assert len(q) == 3
    assert q.pop() is handles[1]


def test_cancel_after_pop_does_not_corrupt_live_count():
    q = EventQueue()
    handle = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert q.pop() is handle
    assert len(q) == 1
    assert handle.cancel()  # popped but unfired: cancellable, but the
    assert len(q) == 1      # queue no longer owns it
    assert q.clear() == 1


def test_clear_with_mixed_paths():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push_fast(2.0, lambda: None)
    q.push(3.0, lambda: None)
    assert q.clear() == 3
    assert len(q) == 0
    assert q.peek_time() is None


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_pop_order_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = [q.pop().time for __ in range(len(times))]
    assert popped == sorted(times)


@given(
    st.lists(
        st.tuples(st.sampled_from([1.0, 2.0, 3.0]), st.integers(0, 999)),
        min_size=1,
        max_size=100,
    )
)
def test_property_stable_within_equal_times(entries):
    """Events at equal timestamps preserve their insertion order."""
    q = EventQueue()
    for t, tag in entries:
        q.push(t, lambda: None, (tag,))
    popped = [q.pop() for __ in range(len(entries))]
    for time_value in (1.0, 2.0, 3.0):
        expected = [tag for t, tag in entries if t == time_value]
        got = [h.args[0] for h in popped if h.time == time_value]
        assert got == expected


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=80),
    st.sets(st.integers(0, 79)),
)
def test_property_cancelled_never_pop(times, cancel_indices):
    q = EventQueue()
    handles = [q.push(t, lambda: None) for t in times]
    cancelled = set()
    for i in cancel_indices:
        if i < len(handles) and handles[i].cancel():
            cancelled.add(handles[i])
    survivors = []
    while q:
        survivors.append(q.pop())
    assert not (set(survivors) & cancelled)
    assert len(survivors) == len(handles) - len(cancelled)


# ----------------------------------------------------------------------
# Property tests over arbitrary interleavings of all scheduling paths.
#
# Operations are interpreted against a simple reference model: a list of
# (time, seq, tag) entries sorted by (time, seq).  The queue must agree
# with the model on length and on the exact (time, seq)-stable order of
# everything that pops — for handle events, fast events, reserved
# pushes (which enter under a sequence number drawn earlier),
# cancellations and clears in any interleaving.
# ----------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "push", "push_fast", "reserve", "push_reserved", "pop",
            "cancel", "clear",
        ]),
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        st.integers(0, 999),
    ),
    max_size=120,
)


@given(_ops)
def test_property_mixed_paths_order_and_accounting(ops):
    q = EventQueue()
    model = []      # live entries: (time, seq, tag)
    handles = {}    # seq -> handle (handle-path entries only)
    reserved = []   # drawn but not yet pushed: (time, seq, tag)
    popped_queue = []
    popped_model = []
    seq = 0

    for op, time, tag in ops:
        if op == "push":
            handles[seq] = q.push(time, lambda: None, (tag,))
            model.append((time, seq, tag))
            seq += 1
        elif op == "push_fast":
            q.push_fast(time, lambda: None, (tag,))
            model.append((time, seq, tag))
            seq += 1
        elif op == "reserve":
            assert q.reserve_seq() == seq
            reserved.append((time, seq, tag))
            seq += 1
        elif op == "push_reserved":
            if reserved:
                entry = reserved.pop(tag % len(reserved))
                q.push_reserved(entry[0], entry[1], lambda: None, (entry[2],))
                model.append(entry)
        elif op == "pop":
            if model:
                popped_queue.append(q.pop().args[0])
                model.sort()
                popped_model.append(model.pop(0)[2])
            else:
                with pytest.raises(IndexError):
                    q.pop()
        elif op == "cancel":
            # Cancel the live handle-path event selected by `tag`.
            live_handles = [
                s for (__, s, __t) in model if s in handles
            ]
            if live_handles:
                chosen = live_handles[tag % len(live_handles)]
                assert handles[chosen].cancel()
                model = [e for e in model if e[1] != chosen]
        elif op == "clear":
            assert q.clear() == len(model)
            model = []
        assert len(q) == len(model)
        assert bool(q) == bool(model)

    assert popped_queue == popped_model
    model.sort()
    drained = [q.pop().args[0] for __ in range(len(model))]
    assert drained == [tag for (__, __s, tag) in model]
    assert not q


@given(_ops)
def test_property_peek_time_matches_next_pop(ops):
    q = EventQueue()
    live = 0
    for op, time, tag in ops:
        if op in ("push", "push_fast"):
            getattr(q, "push" if op == "push" else "push_fast")(
                time, lambda: None, (tag,)
            )
            live += 1
        elif op == "pop" and live:
            q.pop()
            live -= 1
    while q:
        expected = q.peek_time()
        assert q.pop().time == expected


# ----------------------------------------------------------------------
# Heap compaction under cancel-heavy load
# ----------------------------------------------------------------------


def test_compaction_keeps_heap_proportional_to_live_events():
    # Cancel-heavy regression: without compaction the heap retains one
    # dead 3-tuple per cancelled event until its time is reached, so a
    # workload that schedules and cancels N timers (retransmission
    # timers, departure watchdogs) holds O(N) memory while only O(live)
    # events are real.  Compaction bounds the heap at O(live).
    q = EventQueue()
    live = []
    for wave in range(20):
        handles = [
            q.push(1.0 + wave + i * 1e-6, lambda: None) for i in range(500)
        ]
        keep = handles[::100]  # keep 5 of each 500
        for h in handles:
            if h not in keep:
                assert h.cancel()
        live.extend(keep)
        # The invariant after every cancel: dead entries never exceed
        # max(live entries, compaction threshold).
        assert len(q._heap) <= 2 * len(q) + q._COMPACT_MIN_DEAD
    assert len(q) == len(live)
    # Everything still pops in order, dead entries never surface.
    popped = [q.pop() for __ in range(len(live))]
    assert popped == live
    assert not q


def test_same_timestamp_fifo_survives_compaction():
    # Cancellation-triggered compaction re-heapifies; fast-path entries
    # sharing one timestamp must still fire in push order afterwards.
    q = EventQueue()
    handles = [q.push(5.0, lambda __i: None, (i,)) for i in range(200)]
    order = []
    for i in range(10):
        q.push_fast(1.0, order.append, (i,))  # all at one timestamp
    for h in handles[:-1]:
        h.cancel()
    fired = []
    while q:
        time, callback, args = q.pop_callback()
        fired.append(time)
        callback(*args)
    # The t=1.0 entries fired first, in FIFO order, then the one
    # surviving handle event; dead entries never surfaced.
    assert order == list(range(10))
    assert fired == [1.0] * 10 + [5.0]


def test_compaction_during_clear_snapshot():
    # clear() cancels handles one by one; a cancellation that triggers
    # in-place compaction mid-iteration must not break the snapshot.
    q = EventQueue()
    handles = [q.push(1.0 + i, lambda: None) for i in range(300)]
    for h in handles[: len(handles) // 2]:
        h.cancel()
    assert q.clear() == len(handles) - len(handles) // 2
    assert not q
    assert q._heap == []
