"""A finished kind run, or chain-verb run, leaves no cyclic garbage.

A kind run's simulator, network, hosts and circuits reference each
other, and before ``_run_kind`` released them only the cyclic collector
could free a finished run: some 1,200 objects per small sweep job,
gathered up by gen-1 collections that took a tenth of a sweep's wall
time.  Now each layer drops its own back-references once the outcome
exists (or the run raised), so reference counting frees the run, and
``gc.collect()`` right after ``run_planned`` finds nothing.  The chain
verbs, which build their simulator by hand, release the same layers
through the same ``tor.hosts.released`` (one 100 ms ``repro trace``
left 17,195 objects before).

On failure the message lists what leaked (``gc.DEBUG_SAVEALL`` keeps
the garbage for inspection).  The teeth test skips one layer's release
at a time and shows that each one is needed.
"""

from __future__ import annotations

import collections
import dataclasses
import gc

import pytest
from helpers import network_spy

from repro.experiments import get_experiment
from repro.experiments.ablations import AblationsConfig
from repro.experiments.adversity import AdversityStudyConfig
from repro.experiments.dynamic import DynamicConfig
from repro.experiments.fig1_traces import TraceConfig
from repro.experiments.friendliness import FriendlinessConfig
from repro.experiments.interactive import InteractiveConfig
from repro.experiments.netscale import NetScaleConfig
from repro.net.topology import Topology
from repro.scenario import engine, plan_scenario, run_planned
from repro.scenario.cache import PlanCache
from repro.scenario.netgen import NetworkConfig
from repro.scenario.workloads import WorkloadRun
from repro.sim.simulator import Simulator
from repro.tor.hosts import TorHost
from repro.units import kib
from test_golden_pins import golden_closed_loop


def lossless_plan(**overrides):
    scenario = NetScaleConfig(
        circuit_count=4, seed=2018, network=NetworkConfig(10, 10, 10)
    ).to_scenario()
    return plan_scenario(dataclasses.replace(scenario, **overrides), cache=PlanCache())


def faulted_plan():
    """2 % link loss and relay churn on the reliable profile."""
    scenario = AdversityStudyConfig(
        circuit_count=4, horizon=2.0, bulk_payload_bytes=kib(100)
    ).point_scenario(0.02, 4.0)
    return plan_scenario(scenario, cache=PlanCache())


def closed_loop_plan():
    """Request/response and bulk users, queue-depth and goodput probes."""
    return plan_scenario(golden_closed_loop(), cache=PlanCache())


def cyclic_garbage(replay):
    """``(found, what)``: the objects only the collector frees after
    *replay*, and a count of them by type, most common first."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        replay()
        found = gc.collect()
        what = collections.Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found, what.most_common(8)


def replay_all(plan):
    return lambda: run_planned(plan)


#: One reduced run of each verb that builds its simulator by hand.
CHAIN_SPECS = {
    "trace": TraceConfig(duration=0.1),
    "ablations": AblationsConfig(
        gammas=(4.0,),
        compensations=("acked",),
        initial_windows=(2,),
        near=TraceConfig(duration=0.1),
        far=TraceConfig(bottleneck_distance=3, duration=0.1),
        settle_time=0.3,
    ),
    "dynamic": DynamicConfig(change_time=0.3, duration=0.6),
    "interactive": InteractiveConfig(duration=1.2, settle_time=0.5),
    "friendliness": FriendlinessConfig(circuit_start=0.3, duration=0.6),
}


def run_chain_verb(verb):
    return lambda: get_experiment(verb).run(CHAIN_SPECS[verb])


def replay_raising():
    """A lossless kind that cannot finish: it raises after its run, with
    deliveries, timers and probe ticks still pending."""
    plan = lossless_plan(max_sim_time=0.3)

    def replay():
        with pytest.raises(RuntimeError, match="did not finish"):
            run_planned(plan, kinds=["with"])

    return replay


@pytest.mark.parametrize(
    "make_replay",
    [
        pytest.param(lambda: replay_all(lossless_plan()), id="lossless"),
        pytest.param(lambda: replay_all(faulted_plan()), id="faulted"),
        pytest.param(lambda: replay_all(closed_loop_plan()), id="closed-loop"),
        pytest.param(replay_raising, id="raising"),
    ],
)
def test_a_finished_run_leaves_no_cyclic_garbage(make_replay):
    found, what = cyclic_garbage(make_replay())
    assert found == 0, "%d objects left for the collector: %s" % (found, what)


@pytest.mark.parametrize("verb", list(CHAIN_SPECS))
def test_a_chain_verb_run_leaves_no_cyclic_garbage(verb):
    found, what = cyclic_garbage(run_chain_verb(verb))
    assert found == 0, "%d objects left for the collector: %s" % (found, what)


def test_a_run_with_a_forked_kind_leaves_no_cyclic_garbage(monkeypatch):
    """Two kinds side by side: this process replays one, a child the other."""
    monkeypatch.setattr(engine, "_SIDE_BY_SIDE_FLOOR", 0)
    found, what = cyclic_garbage(replay_all(lossless_plan()))
    assert found == 0, "%d objects left for the collector: %s" % (found, what)


def replay_trace():
    return run_chain_verb("trace")


#: Each minimum sits below what skipping that release leaks today: the
#: kind runs 427 to 1,689 objects; the 100 ms trace 16,990 (hosts),
#: 96 (its five-node topology) and 276 (simulator).  A run's release
#: matters only for a circuit that never completes (its waiter keeps
#: the subscribers), so its case replays the faulted plan.
@pytest.mark.parametrize(
    "owner, make_replay, minimum",
    [
        pytest.param(WorkloadRun, lambda: replay_all(faulted_plan()), 100, id="runs"),
        pytest.param(TorHost, lambda: replay_all(lossless_plan()), 100, id="hosts"),
        pytest.param(Topology, lambda: replay_all(lossless_plan()), 100, id="topology"),
        pytest.param(Simulator, replay_raising, 100, id="simulator"),
        pytest.param(TorHost, replay_trace, 1000, id="chain-hosts"),
        pytest.param(Topology, replay_trace, 50, id="chain-topology"),
        pytest.param(Simulator, replay_trace, 100, id="chain-simulator"),
    ],
)
def test_each_layer_release_is_needed(monkeypatch, owner, make_replay, minimum):
    monkeypatch.setattr(owner, "release", lambda self: None)
    found, __ = cyclic_garbage(make_replay())
    assert found > minimum


def test_reads_from_the_top_stay_valid_after_release():
    """What the per-cell budget reads after a run: the network, its
    nodes, each node's handler and the counters on all of them."""
    with network_spy() as networks:
        result = run_planned(lossless_plan(), kinds=["with"])
    (network,) = networks
    nodes = network.topology.nodes
    forwarded = sum(
        getattr(node._handler, "cells_forwarded", 0) for node in nodes.values()
    )
    assert forwarded > 1000
    assert sum(node.packets_received for node in nodes.values()) > forwarded
    assert all(
        interface.max_backlog_packets >= 0 and interface.packets_sent >= 0
        for node in nodes.values()
        for interface in node.interfaces
    )
    assert result.events_executed["with"] > 0
