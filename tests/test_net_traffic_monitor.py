"""Unit tests for background traffic and periodic samplers."""

from __future__ import annotations

import pytest

from repro.net.topology import LinkSpec, build_chain
from repro.net.traffic import ConstantRateSender, LatencyTracker
from repro.sim.monitor import PeriodicSampler
from repro.units import mbit_per_second, milliseconds

SPEC = LinkSpec(mbit_per_second(16), milliseconds(5))


# ----------------------------------------------------------------------
# ConstantRateSender / LatencyTracker
# ----------------------------------------------------------------------


def test_sender_rate_and_count(sim):
    topo = build_chain(sim, ["a", "b"], [SPEC])
    tracker = LatencyTracker(sim)
    topo.node("b").set_handler(tracker)
    # 1 Mbit/s with 512-byte packets -> one packet every 4.096 ms.
    ConstantRateSender(
        sim, topo.node("a"), "b", mbit_per_second(1.0), packet_size=512
    )
    sim.run_until(0.1)
    assert tracker.packets_received == pytest.approx(0.1 / 0.004096, abs=2)


def test_sender_validates_packet_size(sim):
    topo = build_chain(sim, ["a", "b"], [SPEC])
    with pytest.raises(ValueError):
        ConstantRateSender(
            sim, topo.node("a"), "b", mbit_per_second(1.0), packet_size=0
        )


def test_tracker_measures_one_way_delay(sim):
    topo = build_chain(sim, ["a", "b"], [SPEC])
    tracker = LatencyTracker(sim)
    topo.node("b").set_handler(tracker)
    ConstantRateSender(sim, topo.node("a"), "b", mbit_per_second(1.0))
    sim.run_until(0.2)
    # Unloaded link: delay = tx + propagation = 0.256 + 5 ms.
    assert tracker.delays
    assert min(tracker.delays) == pytest.approx(0.000256 + 0.005, rel=1e-6)


def test_tracker_delays_between(sim):
    topo = build_chain(sim, ["a", "b"], [SPEC])
    tracker = LatencyTracker(sim)
    topo.node("b").set_handler(tracker)
    ConstantRateSender(sim, topo.node("a"), "b", mbit_per_second(1.0))
    sim.run_until(0.1)
    early = tracker.delays_between(0.0, 0.05)
    late = tracker.delays_between(0.05, 0.1)
    assert len(early) + len(late) == pytest.approx(len(tracker.delays), abs=1)


# ----------------------------------------------------------------------
# PeriodicSampler
# ----------------------------------------------------------------------


def test_sampler_grid(sim):
    counter = {"n": 0}

    def probe():
        counter["n"] += 1
        return counter["n"]

    sampler = PeriodicSampler(sim, probe, interval=0.1)
    sim.run_until(0.45)
    assert sampler.times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
    assert sampler.values == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sampler.max_value == 5.0


def test_sampler_stop(sim):
    sampler = PeriodicSampler(sim, lambda: 1.0, interval=0.1)
    sim.run_until(0.25)
    sampler.stop()
    sim.run_until(1.0)
    assert len(sampler) if hasattr(sampler, "__len__") else len(sampler.times) == 3


def test_sampler_while_predicate(sim):
    state = {"go": True}
    sampler = PeriodicSampler(
        sim, lambda: 0.0, interval=0.1, while_predicate=lambda: state["go"]
    )
    sim.schedule(0.35, lambda: state.update(go=False))
    sim.run_until(1.0)
    assert len(sampler.times) == 4  # 0.0, 0.1, 0.2, 0.3


def test_sampler_validates_interval(sim):
    with pytest.raises(ValueError):
        PeriodicSampler(sim, lambda: 0.0, interval=0.0)


def test_sampler_rejects_nan_interval(sim):
    with pytest.raises(ValueError):
        PeriodicSampler(sim, lambda: 0.0, interval=float("nan"))


def test_sampler_survives_max_events_parking(sim):
    """Regression: the park-the-clock run_until(max_events=...) semantics.

    When the loop halts early on max_events the clock stays at the last
    executed event, so the sampler's pending tick is never in the past;
    resuming must continue the sampling grid exactly — no ClockError,
    no duplicated or skipped samples.  (Under the old always-advance
    semantics the pending tick could end up behind the advanced clock.)
    """
    sampler = PeriodicSampler(
        sim, lambda: 1.0, interval=0.1, while_predicate=lambda: sim.now <= 1.0
    )
    while sim.pending_events:
        sim.run_until(2.0, max_events=1)  # one event per resume
    assert sampler.times == pytest.approx(
        [round(0.1 * i, 10) for i in range(11)]
    )


def test_sampler_stop_cancels_pending_tick(sim):
    """stop() must cancel the scheduled tick, not just flag it.

    The old implementation only set a flag, so the already-scheduled
    next tick stayed in the queue and kept ``run()`` alive up to one
    extra interval after stopping.  Now the handle is cancelled: after
    ``stop()`` the queue holds no sampler event and ``run()`` returns
    immediately without advancing the clock.
    """
    sampler = PeriodicSampler(sim, lambda: 1.0, interval=0.1)
    sim.run_until(0.25)
    sampler.stop()
    assert sim.pending_events == 0
    sim.run()  # nothing left: returns at once, clock untouched
    assert sim.now == pytest.approx(0.25)
    assert sampler.times == pytest.approx([0.0, 0.1, 0.2])
    sampler.stop()  # idempotent


def test_sampler_stop_before_first_tick(sim):
    """Stopping before the initial call_soon tick fires cancels it too."""
    sampler = PeriodicSampler(sim, lambda: 1.0, interval=0.1)
    sampler.stop()
    assert sim.pending_events == 0
    sim.run()
    assert sampler.times == []


def test_sampler_empty_max(sim):
    sampler = PeriodicSampler(
        sim, lambda: 1.0, interval=0.1, while_predicate=lambda: False
    )
    sim.run_until(0.5)
    assert sampler.max_value == 0.0


def test_queue_probe_tracks_backlog(sim):
    from repro.net.packet import Packet

    topo = build_chain(sim, ["a", "b"], [SPEC])
    topo.node("b").set_handler(lambda packet, node: None)
    iface = topo.node("a").interfaces[0]
    probe = PeriodicSampler(sim, lambda: iface.backlog_packets, interval=0.0001)
    for __ in range(10):
        topo.node("a").send(Packet(512, dst="b"))
    sim.run_until(0.01)
    assert probe.max_value >= 5  # most packets queued behind the first
