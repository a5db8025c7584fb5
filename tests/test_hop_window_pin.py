"""Byte pin of one hop's window books under seeded op sequences.

A real :class:`~repro.transport.hop.HopSender` runs on a bare
:class:`~repro.sim.simulator.Simulator` (a stub transmit, no network)
for three controller kinds, lossless and reliable.  A seeded sequence
of ops drives it: enqueue a burst, feedback for an in-flight seq, a
duplicate feedback, time passing, the RTO timer firing, and teardown.
After every op the sender's counters and the controller's window and
round state are recorded; the sha256 of the record is pinned per
(kind, mode).

The record covers everything the window decisions depend on, so a
change to who counts the cells in flight, or to when a round closes
early because the hop drained, moves a digest.  The teeth case
checks that: a controller that is never told its hop drained must
move at least one.
"""

from __future__ import annotations

import json
import random

import pytest
from helpers import pins, text_digest

from repro.core.factory import CONTROLLER_REGISTRY
from repro.sim.simulator import Simulator
from repro.transport.config import TransportConfig
from repro.transport.hop import HopSender

CONFIGS = {
    "lossless": TransportConfig(),
    "reliable": TransportConfig(reliable=True),
}

#: Ops per sequence.
STEPS = 600

#: (kind, mode) of every pinned sequence: the ledger's keys, split.
CASES = [tuple(key.split()) for key in sorted(pins("hop-window"))]


class _Cell:
    def __init__(self):
        self.size = 512
        self.hop_seq = -1

    def clone(self):
        copy = _Cell()
        copy.hop_seq = self.hop_seq
        return copy


def _snapshot(sender, controller):
    return [
        sender.cells_sent,
        sender.feedback_received,
        sender.inflight_cells,
        sender.buffered_cells,
        controller.cwnd_cells,
        controller.round_index,
        controller.round_acked,
        controller.round_target,
        controller.phase.value,
    ]


def run_ops(kind, mode, controller_type=None):
    """Drive one seeded op sequence; return the per-op record (the
    ledger pins the sha256 of its compact JSON)."""
    config = CONFIGS[mode]
    controller = (controller_type or CONTROLLER_REGISTRY[kind])(config)
    sim = Simulator()
    sender = HopSender(sim, config, controller, lambda cell, token: None,
                       label="pin")
    rng = random.Random("%s/%s" % (kind, mode))
    record = []
    for __ in range(STEPS):
        roll = rng.random()
        send_times = sender._send_times
        if roll < 0.28:
            op = "enqueue"
            for __i in range(rng.randint(1, 4)):
                sender.enqueue(_Cell())
        elif roll < 0.63:
            op = "feedback"
            if send_times:
                # Mostly for the oldest cell in flight, and never
                # sooner than two milliseconds after it was sent.
                seqs = sorted(send_times)
                seq = seqs[0] if rng.random() < 0.7 else rng.choice(seqs)
                due = send_times[seq] + rng.uniform(0.002, 0.0025)
                sim.run_until(sim.now + max(0.0, due - sim.now))
                sender.on_feedback(seq)
        elif roll < 0.68:
            op = "duplicate"
            # Below every seq in flight: a repeat in either mode.
            low = min(send_times) if send_times else sender._next_seq
            if low:
                sender.on_feedback(rng.randrange(low))
        elif roll < 0.93:
            op = "advance"
            sim.run_until(sim.now + rng.uniform(0.0005, 0.004))
        elif roll < 0.985:
            op = "timeout"
            timer = sender._retx_timer
            if timer is not None:
                sim.run_until(sim.now + (timer.time - sim.now))
        else:
            op = "close"
            sender.close()
        record.append([op, round(sim.now, 9)] + _snapshot(sender, controller))
    return record


@pytest.mark.parametrize("kind, mode", CASES)
def test_window_books_pinned(kind, mode):
    record = json.dumps(run_ops(kind, mode), separators=(",", ":"))
    assert text_digest(record) == pins("hop-window")["%s %s" % (kind, mode)]


@pytest.mark.parametrize("kind, mode", CASES)
def test_sequence_reaches_every_state(kind, mode):
    """The pin is only as good as what the ops exercise."""
    record = run_ops(kind, mode)
    ops = {row[0] for row in record}
    assert ops == {"enqueue", "feedback", "duplicate", "advance", "timeout",
                   "close"}
    # Drained with cells still to come, and rounds that closed.
    assert any(row[4] == 0 for row in record[STEPS // 2:])
    assert record[-1][7] > 10
    if kind != "without":
        assert {row[10] for row in record} == {"startup", "avoidance"}


def _deaf(kind):
    """*kind*'s controller with the drained signal never reaching it."""
    base = CONTROLLER_REGISTRY[kind]

    def on_feedback(self, rtt, now, drained, sampled=True):
        base.on_feedback(self, rtt, now, False, sampled=sampled)

    return type("Deaf" + base.__name__, (base,), {"on_feedback": on_feedback})


def test_teeth_drained_signal_moves_a_digest():
    pinned = pins("hop-window")
    moved = [
        (kind, mode)
        for kind, mode in CASES
        if text_digest(json.dumps(run_ops(kind, mode, _deaf(kind)),
                                  separators=(",", ":")))
        != pinned["%s %s" % (kind, mode)]
    ]
    assert moved
