"""Replay sampled lossy model schedules through the real fault plane.

The exhaustive checker (``repro.check``) explores an abstract model of
the hop transport; ``replay_schedule`` locksteps those schedules against
the real state machines in a linkless harness.  These tests close the
remaining gap: a *lossy* sampled schedule is re-enacted against the real
engine — links, queues, timers — by translating its ``lose_cell`` /
``lose_feedback`` steps into :class:`ScriptedLossModel` drop indices on
the corresponding interfaces (the new fault plane), then asserting the
end-to-end reliability property the model proves in the abstract.
"""

from __future__ import annotations

import pytest

from repro.check import CheckConfig, explore, replay_schedule
from repro.net.faults import ScriptedLossModel, install_fault_model
from repro.sim.simulator import Simulator
from repro.transport.config import CELL_PAYLOAD, TransportConfig

from helpers import make_chain_flow

#: The CI loss-budget instance: 2 hops, 2 cells, go-back-N armed, at
#: most one loss per execution.  Small enough to enumerate in seconds,
#: rich enough that sampled schedules exercise retransmission.
LOSSY_INSTANCE = CheckConfig(hops=2, cells=2, reliable=True, loss_budget=1)

#: hop index -> (forward interface endpoints, reverse interface endpoints)
#: for the 2-hop chain source -> relay1 -> sink.
HOP_INTERFACES = {
    0: (("source", "relay1"), ("relay1", "source")),
    1: (("relay1", "sink"), ("sink", "relay1")),
}

RELIABLE = TransportConfig(reliable=True, rto_min=0.05, rto_initial=0.3)


@pytest.fixture(scope="module")
def lossy_check():
    # Bounded exploration: DFS reaches terminal schedules long before
    # the ~2.4M-state space is exhausted, so sampling stays cheap here.
    # CI runs the same instance unbounded as the exhaustive proof.
    result = explore(
        LOSSY_INSTANCE, sample_schedules=40, seed=7, max_states=120_000
    )
    assert result.ok
    return result


def _forward_drop_indices(schedule, hop):
    """Drop indices for *hop*'s forward channel.

    The model's forward channel is FIFO, so the n-th ``cell`` /
    ``lose_cell`` step at a hop handles the n-th packet transmitted
    across that link — the index a per-interface fault model counts.
    """
    drops, index = [], 0
    for step in schedule.steps:
        if step.hop != hop:
            continue
        if step.kind == "lose_cell":
            drops.append(index)
            index += 1
        elif step.kind == "cell":
            index += 1
    return drops


def test_sampling_yields_lossy_schedules(lossy_check):
    lossy = [
        s for s in lossy_check.samples
        if any(step.kind.startswith("lose_") for step in s.steps)
    ]
    assert lossy, "loss-budget instance sampled no lossy schedules"
    # The budget caps each execution at one loss.
    for schedule in lossy:
        losses = sum(1 for s in schedule.steps if s.kind.startswith("lose_"))
        assert losses == 1


def test_lossy_sample_replays_in_lockstep_harness(lossy_check):
    for schedule in lossy_check.samples:
        report = replay_schedule(schedule)
        assert report.agreed, report


def test_lossy_sample_replays_through_engine_fault_plane(lossy_check):
    """Re-enact a sampled lossy schedule on the real engine.

    Picks a sampled schedule that drops an *original* forward
    transmission (index < cells, so the engine is guaranteed to send
    that packet too), scripts the same loss on the same hop's interface
    via the fault plane, and checks the property the model guarantees:
    the drop happens, go-back-N recovers it, and the sink still sees
    every payload byte exactly once, in order.
    """
    chosen = hop = drops = None
    for schedule in lossy_check.samples:
        for candidate_hop in HOP_INTERFACES:
            indices = _forward_drop_indices(schedule, candidate_hop)
            if indices and max(indices) < LOSSY_INSTANCE.cells:
                chosen, hop, drops = schedule, candidate_hop, indices
                break
        if chosen is not None:
            break
    assert chosen is not None, "no sample drops an original transmission"

    sim = Simulator()
    flow, topology, __ = make_chain_flow(
        sim,
        relay_count=1,
        payload_bytes=LOSSY_INSTANCE.cells * CELL_PAYLOAD,
        config=RELIABLE,
    )
    forward, __reverse = HOP_INTERFACES[hop]
    model = install_fault_model(
        topology._interface_between(*forward), ScriptedLossModel(drops)
    )

    offsets = []
    original = flow.sink.on_cell

    def spy(cell):
        offsets.append(cell.offset)
        original(cell)

    flow.sink.on_cell = spy
    sim.run_until(120.0)

    # The scripted loss fired, and reliability recovered it.
    assert model.packets_dropped == len(drops)
    assert model.packets_seen > LOSSY_INSTANCE.cells  # retransmission happened
    assert flow.sink.done
    assert flow.sink.received_bytes == flow.payload_bytes
    assert offsets == sorted(offsets)
    assert len(offsets) == len(set(offsets)) == LOSSY_INSTANCE.cells
