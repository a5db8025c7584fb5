"""An exact work budget for the per-cell path: calls per forwarded cell.

Wall time on a shared box moves 1.6x within the hour, so no test can
gate on it.  The number of Python-level calls that one fixed simulation
makes is the same on every machine and every run, and it is what the
per-cell path work of ROADMAP item 2 actually changed: one data cell
crossing one relay, and the feedback it triggers, is a short call
chain.  Each test replays a small, fixed, already planned scenario and
counts Python frames (``call`` events under :func:`sys.setprofile`) and
C calls (``c_call`` events) apart: building an object without its
Python ``__init__`` trades a frame for a C call, which one sum of the
two cannot see.  It divides each by the run's summed
``TorHost.cells_forwarded`` and holds each quotient under a ceiling
2 % above what the current code measures.

A failure here means the per-cell path grew a frame or a C call per
cell: a wrapper, a property on the hot path, a ``len()``.  If that is
deliberate, re-measure (``python tests/test_percell_budget.py`` prints
the current quotients, and splits the events the loop ran by callee)
and say why in the commit.
"""

from __future__ import annotations

import gc
import sys

import pytest
from helpers import network_spy

from repro.experiments.adversity import AdversityStudyConfig
from repro.experiments.netscale import NetScaleConfig
from repro.net.link import Interface
from repro.net.node import Node
from repro.scenario import plan_scenario, run_planned
from repro.scenario.cache import PlanCache
from repro.scenario.netgen import NetworkConfig
from repro.sim.simulator import Simulator
from repro.tor.hosts import TorHost
from repro.transport.hop import HopSender
from repro.units import kib


def lossless_scenario():
    """A 4-circuit lossless wave: the ``netscale-wave`` path, small."""
    return NetScaleConfig(
        circuit_count=4, seed=2018, network=NetworkConfig(10, 10, 10)
    ).to_scenario()


def reliable_scenario():
    """2 % link loss and relay churn on the reliable transport profile:
    go-back-N, RTO timers, teardown cascades (``adversity-point``, small)."""
    return AdversityStudyConfig(
        circuit_count=4, horizon=2.0, bulk_payload_bytes=kib(100)
    ).point_scenario(0.02, 4.0)


#: name -> (scenario, frames and C calls per forwarded cell allowed):
#: each quotient measured on CPython 3.11 plus 2 % (3.10 and 3.12
#: differ from it in the fifth digit).
#:
#:              frames + C calls per cells_forwarded
#:              now                            before ``current_seq`` was
#:                                             a plain attribute
#:   lossless   209,292 + 358,173 / 10,752     211,184 + 358,173 / 10,752
#:              = 19.465 + 33.312 = 52.778     = 19.641 + 33.312 = 52.954
#:   reliable    82,105 + 109,719 /  2,644      82,230 + 109,719 /  2,644
#:              = 31.053 + 41.497 = 72.551     = 31.101 + 41.497 = 72.598
#:
#: Before direct delivery and the wire-object helpers: 264,944 + 325,737 /
#: 10,752 = 24.641 + 30.295 = 54.937 and 95,087 + 101,449 / 2,644 =
#: 35.963 + 38.370 = 74.333.
#: Earlier, newest first, as one sum of both: 590,707 / 10,752 = 54.939
#: and 196,544 / 2,644 = 74.336 as first recorded (the "before" column
#: is the same code re-measured), 699,411 / 10,752 = 65.049 and
#: 221,451 / 2,644 = 83.756 before the two-branch loop and the flat
#: feedback path; 701,544 / 10,752 = 65.248 and 222,027 / 2,644
#: = 83.974 before the unused mechanisms went; 712,332 / 10,752 = 66.251
#: and 224,467 / 2,644 = 84.897 before the sender owned the cells in
#: flight; 1,004,893 / 10,752 = 93.461 and 296,158 / 2,644 = 112.011
#: before the one-frame link.  Before the deferred re-arm the reliable
#: run made 330,482 / 2,644 = 124.993.  Before ROADMAP 2(a)-(c) they
#: were 1,330,515 / 10,752 = 123.746 and 411,077 / 2,644 = 155.475.
BUDGETS = {
    "lossless": (lossless_scenario, 19.86, 33.98),
    "reliable": (reliable_scenario, 31.68, 42.33),
}


_LOOP = Simulator._run_loop.__code__
_SEND = Interface.send.__code__
_HANDLE_PACKET = TorHost.handle_packet.__code__
_DELIVER = Node.deliver.__code__
_ON_TIMEOUT = HopSender._on_timeout.__code__


def _event_kind(frame):
    """What an event the loop called *frame* for is: a link delivery, an
    interface wake (``send(None)``), a retransmission timer or other."""
    code = frame.f_code
    if code is _SEND:
        return "wake" if frame.f_locals["packet"] is None else "delivery"
    if code is _HANDLE_PACKET or code is _DELIVER:
        return "delivery"
    if code is _ON_TIMEOUT:
        return "timer"
    return "other"


def calls_per_forwarded_cell(scenario):
    """``(frames, c_calls, cells_forwarded, events)`` of one replay of
    *scenario*'s plan.

    *frames* counts the profile's ``call`` events (Python frames) and
    *c_calls* its ``c_call`` events.  *events* maps ``"executed"`` to
    what the simulator executed, summed over the kinds (the denominator
    of calls per event, the engine's other axis), and each of
    ``delivery``, ``wake``, ``timer`` and ``other`` to the frames the
    event loop itself called of that kind (:func:`_event_kind`).

    One ``run_planned`` per kind, summed: a single-kind replay stays in
    this process, where the profile hook and the network spy can see it
    (a full replay may fork all kinds but the first).
    """
    # Planning happens outside the counted region, on a cache of its
    # own: a plan another test left in the default cache must not
    # change the count.
    plan = plan_scenario(scenario, cache=PlanCache())
    counts = dict.fromkeys(("call", "c_call", "delivery", "wake", "timer", "other"), 0)

    def count(frame, event, arg):
        if event == "call":
            counts["call"] += 1
            if frame.f_back is not None and frame.f_back.f_code is _LOOP:
                counts[_event_kind(frame)] += 1
        elif event == "c_call":
            counts["c_call"] += 1

    executed = 0
    previous = sys.getprofile()
    # No collection inside the counted region: every ``gc.callbacks``
    # entry (Hypothesis registers one for the rest of the process) is a
    # Python-level call, and how many collections a replay triggers
    # depends on what the process allocated before it.
    collecting = gc.isenabled()
    gc.disable()
    with network_spy() as networks:
        sys.setprofile(count)
        try:
            for kind in scenario.kinds:
                executed += run_planned(plan, kinds=[kind]).events_executed[kind]
        finally:
            sys.setprofile(previous)
            if collecting:
                gc.enable()
    forwarded = sum(
        getattr(node._handler, "cells_forwarded", 0)
        for network in networks
        for node in network.topology.nodes.values()
    )
    events = {"executed": executed}
    events.update((kind, counts[kind]) for kind in EVENT_KINDS)
    return counts["call"], counts["c_call"], forwarded, events


#: How :func:`calls_per_forwarded_cell` splits the events, in print order.
EVENT_KINDS = ("delivery", "wake", "timer", "other")


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_calls_per_forwarded_cell_stay_within_budget(name):
    make_scenario, frame_ceiling, c_call_ceiling = BUDGETS[name]
    frames, c_calls, forwarded, __ = calls_per_forwarded_cell(make_scenario())
    assert forwarded > 1000, "the run is too small to say anything per cell"
    assert frames / forwarded <= frame_ceiling, (
        "%s: %d frames for %d forwarded cells = %.3f per cell, budget %.2f"
        % (name, frames, forwarded, frames / forwarded, frame_ceiling)
    )
    assert c_calls / forwarded <= c_call_ceiling, (
        "%s: %d C calls for %d forwarded cells = %.3f per cell, budget %.2f"
        % (name, c_calls, forwarded, c_calls / forwarded, c_call_ceiling)
    )


def test_the_count_repeats_exactly():
    first = calls_per_forwarded_cell(reliable_scenario())
    assert calls_per_forwarded_cell(reliable_scenario()) == first


if __name__ == "__main__":  # pragma: no cover - re-measuring aid
    for budget_name, (make, __, __) in sorted(BUDGETS.items()):
        frames, c_calls, cells, events = calls_per_forwarded_cell(make())
        total, executed = frames + c_calls, events["executed"]
        print(
            "%-9s %9d calls / %6d cells = %.3f per cell (%.3f frames + %.3f C calls),"
            " / %6d events = %.3f per event"
            % (budget_name, total, cells, total / cells, frames / cells,
               c_calls / cells, executed, total / executed)
        )
        print(
            "%-9s events by callee: %s" % (
                "", ", ".join(
                    "%s %d (%.1f %%)" % (kind, events[kind], 100.0 * events[kind] / executed)
                    for kind in EVENT_KINDS
                ),
            )
        )
