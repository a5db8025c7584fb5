"""Hypothesis property tests for reliable go-back-N (HopSender).

Randomized schedules of enqueue / feedback / timeout events drive one
reliable hop sender directly (stub transmit function, no network), and
four properties of the recovery machinery are asserted on every
history:

* feedback is **cumulative** — acking seq *n* completes every
  outstanding seq <= n, exactly once;
* **Karn's rule** — an RTT sample is only taken for a sequence number
  that was never retransmitted (``sampled=False`` otherwise);
* retransmission **clones carry the original hop_seq** (and leave the
  original cell object untouched);
* ``_timeout_streak`` **resets on progress** and only on progress;
* ``_send_times`` **stays in ascending seq order** after every step,
  which is what lets ``on_feedback`` stop at the first key beyond the
  acknowledged one instead of sorting the window.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.baselines import FixedWindowController
from repro.sim.simulator import Simulator
from repro.transport.config import TransportConfig
from repro.transport.hop import HopBrokenError, HopSender


RELIABLE = TransportConfig(
    reliable=True,
    rto_min=0.05,
    rto_initial=0.3,
    max_retransmission_rounds=12,
)


class RecordingController(FixedWindowController):
    """Fixed window controller that records every feedback sample."""

    def __init__(self, config, window_cells=4):
        super().__init__(config, window_cells=window_cells)
        self.feedback_log = []  # (sampled, rtt)

    def on_feedback(self, rtt, now, drained, sampled=True):
        self.feedback_log.append((sampled, rtt))
        super().on_feedback(rtt, now, drained, sampled=sampled)


class Cell:
    def __init__(self, ident):
        self.size = 512
        self.hop_seq = -1
        self.ident = ident
        self.clones = []

    def clone(self):
        copy = Cell(self.ident)
        copy.hop_seq = self.hop_seq
        self.clones.append(copy)
        return copy


def make_harness():
    sim = Simulator()
    config = RELIABLE
    controller = RecordingController(config, window_cells=4)
    wire = []

    def transmit(cell, token):
        wire.append(cell)

    sender = HopSender(sim, config, controller, transmit, label="prop")
    sender.on_broken = lambda error: None  # break is allowed, not fatal
    return sim, sender, controller, wire


# Event alphabet for one random history.  Feedback targets and timeout
# firing are interpreted against the live sender state, so every
# generated history is applicable.
EVENTS = st.lists(
    st.one_of(
        st.just(("enqueue",)),
        st.tuples(st.just("ack"), st.integers(min_value=0, max_value=30)),
        st.just(("timeout",)),
        st.just(("advance",)),
    ),
    min_size=1,
    max_size=40,
)


def run_history(events):
    """Interpret one event list; return the full observable history."""
    sim, sender, controller, wire = make_harness()
    acked_done = []           # every seq completed via on_feedback
    ident = 0
    for event in events:
        if event[0] == "enqueue":
            sender.enqueue(Cell(ident))
            ident += 1
        elif event[0] == "ack":
            outstanding = sorted(sender._send_times)
            if not outstanding:
                continue
            # Map the random index onto a real outstanding seq.
            seq = outstanding[event[1] % len(outstanding)]
            before = set(sender._send_times)
            sender.on_feedback(seq)
            acked_done.extend(s for s in before if s not in sender._send_times)
        elif event[0] == "timeout":
            if sender._unacked and not sender.broken:
                try:
                    sender._on_timeout()
                except HopBrokenError:
                    pass
        elif event[0] == "advance":
            sim.run_until(sim.now + 0.01)
        # A contract, not an assumption: on_feedback's prefix scan
        # breaks at the first key beyond the acknowledged seq.
        assert list(sender._send_times) == sorted(sender._send_times)
    return sim, sender, controller, wire, acked_done


@settings(max_examples=120, deadline=None)
@given(EVENTS)
# First transmissions, a go-back-N round re-storing every key, a
# partial ack, then more first transmissions behind the survivors.
@example([("enqueue",)] * 4 + [("timeout",), ("ack", 1)] + [("enqueue",)] * 3
         + [("timeout",), ("ack", 0), ("timeout",)])
def test_send_times_stay_in_ascending_seq_order(events):
    sim, sender, controller, wire, acked_done = run_history(events)
    # run_history asserted the order after every step; what the acks
    # left outstanding lies above everything they completed.
    assert list(sender._send_times) == sorted(sender._send_times)
    assert all(s > max(acked_done) for s in sender._send_times if acked_done)


@settings(max_examples=120, deadline=None)
@given(EVENTS)
def test_cumulative_ack_completes_exactly_the_prefix(events):
    sim, sender, controller, wire, acked_done = run_history(events)
    # No seq is ever completed twice.
    assert len(acked_done) == len(set(acked_done))
    # Whatever is still outstanding is above every completed seq that
    # was outstanding with it -- i.e. completions were prefix-shaped:
    # replay the history's bookkeeping via the invariant that
    # on_feedback(seq) leaves no outstanding s <= seq behind.  (After a
    # break close() has emptied _send_times and this loop is vacuous,
    # never wrong: "still outstanding" is only read as "not completed".)
    for s in sender._send_times:
        assert s not in acked_done


@settings(max_examples=120, deadline=None)
@given(EVENTS)
# The 13th timeout exceeds max_retransmission_rounds=12: the hop breaks
# and close() discards seq 0 -- retransmitted, never acknowledged.
@example([("enqueue",)] + [("timeout",)] * 13)
def test_karn_rule_no_rtt_sample_for_retransmitted(events):
    sim, sender, controller, wire, acked_done = run_history(events)
    # Reconstruct which seqs were ever retransmitted from the wire:
    # a seq that appears more than once was retransmitted.
    seen = {}
    for cell in wire:
        seen[cell.hop_seq] = seen.get(cell.hop_seq, 0) + 1
    retransmitted = {seq for seq, count in seen.items() if count > 1}
    # "Acknowledged" means completed by a real on_feedback (acked_done),
    # never "absent from sender._send_times": close() empties that too.
    # The controller log and the wire history were produced
    # independently.
    unsampled = sum(1 for sampled, _rtt in controller.feedback_log
                    if not sampled)
    acked_retx = len(retransmitted & set(acked_done))
    # Karn's rule: a completion contributes no RTT sample exactly when
    # its seq was retransmitted; every other completion is sampled.
    assert unsampled == acked_retx
    assert len(controller.feedback_log) == len(acked_done)


@settings(max_examples=120, deadline=None)
@given(EVENTS)
def test_retransmission_clones_carry_original_hop_seq(events):
    sim, sender, controller, wire, _ = run_history(events)
    firsts = {}
    for cell in wire:
        if cell.hop_seq in firsts:
            # A retransmitted copy: it must be a clone object carrying
            # the seq assigned at first transmission, and the original
            # object must still hold that same seq.
            original = firsts[cell.hop_seq]
            assert cell is not original
            assert cell in original.clones
            assert cell.hop_seq == original.hop_seq
        else:
            firsts[cell.hop_seq] = cell
    # hop_seq values are assigned sequentially at first transmission.
    assert sorted(firsts) == list(range(len(firsts)))


@settings(max_examples=120, deadline=None)
@given(EVENTS)
def test_timeout_streak_resets_on_progress_only(events):
    sim, sender, controller, wire = make_harness()
    streak = 0
    ident = 0
    for event in events:
        if event[0] == "enqueue":
            sender.enqueue(Cell(ident))
            ident += 1
        elif event[0] == "ack":
            outstanding = sorted(sender._send_times)
            if not outstanding:
                continue
            seq = outstanding[event[1] % len(outstanding)]
            made_progress = any(s <= seq for s in sender._send_times)
            sender.on_feedback(seq)
            if made_progress:
                streak = 0  # progress (or full drain) resets the streak
            assert sender._timeout_streak == streak
        elif event[0] == "timeout":
            if sender._unacked and not sender.broken:
                try:
                    sender._on_timeout()
                except HopBrokenError:
                    pass
                if sender.broken:
                    return
                streak += 1
            assert sender._timeout_streak == streak
        elif event[0] == "advance":
            # The scheduled retransmission timer can genuinely fire
            # while simulated time advances (enough advances reach the
            # RTO, which clamps to rto_min when the sampled RTT is 0);
            # every real fire bumps both `timeouts` and the streak, so
            # the model tracks fires through the `timeouts` counter.
            before = sender.timeouts
            sim.run_until(sim.now + 0.01)
            if sender.broken:
                return
            streak += sender.timeouts - before
            assert sender._timeout_streak == streak
