"""`Interface` against the eager two-event transmitter it replaced.

The production transmitter schedules no "transmission complete" event
unless a packet arrives while the wire is busy; it reserves that
event's sequence number instead and pushes it late (see
``repro.net.link``).  The claim is that nothing observable changes.
This module keeps the old transmitter, :class:`EagerInterface`, as the
reference and drives both through the same random arrival schedules —
exact same-instant ties on both sides of the reserved number, sends
from inside an ``on_tx_start`` hook, a rate change mid-run and
scripted fault verdicts, as a :class:`~repro.net.faults.ScriptedLossModel`
gives them (the ``-1.0`` verdict drops a packet: the only way a link
loses one) — and requires the same log, entry for entry, and the same
books at the end: packets and bytes sent, and the high-water mark of
packets that waited behind a transmission.

It also pins what the change is for, as exact event counts.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Interface, Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.units import Rate

# Power-of-two times, so that sums of them are exact and arrivals really
# do land on the instant the wire frees up.
SLOT = 2.0 ** -10           # serialization time of a BIG packet
BIG, SMALL = 1024, 512      # SMALL takes half a slot
RATE = Rate(BIG / SLOT)
DELAY = 3 * SLOT / 4
# Past every arrival and transmission of a generated schedule.  Both
# worlds are run to this fixed time, not until their queues drain: the
# clock of a drained simulator rests at its last event, and the end of
# a trailing transmission whose packet was dropped is an event only in
# the eager world.
HORIZON = 128 * SLOT


class EagerInterface:
    """The transmitter before the change: one completion event per packet."""

    def __init__(self, sim, owner, link):
        self._sim, self.owner, self.link = sim, owner, link
        self.queue = deque()
        self.peer = None
        self.busy = False
        self.packets_sent = self.bytes_sent = self.max_backlog_packets = 0
        self.fault_model = None

    @property
    def backlog_packets(self):
        return len(self.queue)

    def attach_peer(self, peer):
        self.peer = peer

    def send(self, packet):
        self.queue.append(packet)
        if self.busy:
            self.max_backlog_packets = max(self.max_backlog_packets, len(self.queue))
        else:
            self._transmit_next()

    def _transmit_next(self):
        if not self.queue:
            self.busy = False
            return
        packet = self.queue.popleft()
        self.busy = True
        tx_time = self.link.transmission_time_for(packet.size)
        self.packets_sent += 1
        self.bytes_sent += packet.size
        if packet.on_tx_start is not None:
            hook, packet.on_tx_start = packet.on_tx_start, None
            hook(packet.on_tx_start_arg)
        sim = self._sim
        sim.schedule_fast(tx_time, self._transmission_complete)
        flight = tx_time + self.link.delay
        if self.fault_model is not None:
            verdict = self.fault_model.on_transmit(packet)
            if verdict < 0.0:
                return
            if verdict > 0.0:
                flight = flight + verdict
        sim.schedule_fast(flight, self._deliver, packet)

    def _transmission_complete(self):
        self.busy = False
        if self.queue:
            self._transmit_next()

    def _deliver(self, packet):
        self.peer.deliver(packet, self)  # Node.deliver counts the packet


class ScriptedFaults:
    """Replays a fixed cycle of verdicts: pass, drop or extra delay."""

    def __init__(self, verdicts):
        self.verdicts, self.calls = verdicts, 0

    def on_transmit(self, packet):
        self.calls += 1
        return self.verdicts[(self.calls - 1) % len(self.verdicts)]


class World:
    """One simulator, one interface under test, and a log of what it did."""

    def __init__(self, interface_cls, verdicts):
        self.sim = sim = Simulator()
        self.log = log = []
        self.sent = 0
        receiver = Node(
            sim, "rx",
            handler=lambda packet, node: log.append(
                ("deliver", sim.now, packet.payload)
            ),
        )
        self.link = Link(RATE, DELAY)
        self.iface = interface_cls(sim, Node(sim, "tx"), self.link)
        self.iface.attach_peer(receiver)
        if verdicts:
            self.iface.fault_model = ScriptedFaults(verdicts)

    def send(self, size, hook_sends):
        label = self.sent
        self.sent += 1
        packet = Packet(size, payload=label)
        if hook_sends is not None:
            packet.on_tx_start = self.on_tx_start
            packet.on_tx_start_arg = (label, hook_sends)
        self.iface.send(packet)
        self.log.append(("send", self.sim.now, label))

    def on_tx_start(self, arg):
        label, sends = arg
        self.log.append(("hook", self.sim.now, label, self.iface.busy))
        for __ in range(sends):
            self.send(SMALL, None)  # re-entrant: the wire is mid-hook

    def apply(self, op):
        kind, size, hook_sends, again_after = op
        if kind == "send":
            self.send(size, hook_sends)
        elif kind == "probe":
            self.log.append(
                ("busy", self.sim.now, self.iface.busy, self.iface.backlog_packets)
            )
        else:
            self.link.rate = Rate(2 * RATE.bytes_per_second)
        if again_after is not None:
            # Scheduled from inside the run, i.e. *after* whatever
            # transmission this op started: lands on the late side of
            # that transmission's reserved number.
            self.sim.schedule(
                again_after * SLOT / 2, self.apply, ("send", size, None, None)
            )

    def outcome(self):
        iface = self.iface
        return (
            self.log, iface.packets_sent, iface.bytes_sent,
            iface.max_backlog_packets, iface.backlog_packets, iface.busy,
            self.sim.now,
        )


_op = st.tuples(
    st.sampled_from(["send", "send", "send", "probe", "rate"]),
    st.sampled_from([BIG, SMALL]),
    st.one_of(st.none(), st.integers(0, 2)),   # sends from on_tx_start
    st.one_of(st.none(), st.integers(0, 4)),   # follow-up, in half slots
)
_schedule = st.lists(st.tuples(st.integers(0, 16), _op), max_size=24)
# Fault verdicts: deliver, drop (-1.0) or deliver late.
_setup = st.tuples(
    st.lists(st.sampled_from([0.0, 0.0, -1.0, SLOT / 4]), max_size=4),
)


def _play(interface_cls, setup, schedule, drive):
    world = World(interface_cls, *setup)
    # Scheduled before the run: the early side of every reserved number.
    for half_slots, op in schedule:
        world.sim.schedule_at(half_slots * SLOT / 2, world.apply, op)
    drive(world.sim)
    return world


def _run(sim):
    sim.run_until(HORIZON)


def _step_through(sim):
    while sim.pending_events:
        sim.run(max_events=1)
    sim.run_until(HORIZON)


@settings(max_examples=300, deadline=None)
@given(_setup, _schedule)
def test_interface_matches_eager_reference(setup, schedule):
    eager = _play(EagerInterface, setup, schedule, _run)
    lazy = _play(Interface, setup, schedule, _run)
    assert lazy.outcome() == eager.outcome()
    # The reference pays one completion event per transmission; the
    # interface pays for at most that many, and none it did not need.
    spared = eager.sim.events_executed - lazy.sim.events_executed
    assert 0 <= spared <= eager.iface.packets_sent


@settings(max_examples=100, deadline=None)
@given(_setup, _schedule)
def test_stepping_through_ties_matches_run(setup, schedule):
    run = _play(Interface, setup, schedule, _run)
    stepped = _play(Interface, setup, schedule, _step_through)
    assert stepped.outcome() == run.outcome()
    assert stepped.sim.events_executed == run.sim.events_executed


def test_tie_on_either_side_of_the_reserved_number():
    # t=0: a BIG packet starts; the wire frees at exactly t=SLOT.  One
    # arrival for t=SLOT was scheduled before the run (it precedes the
    # completion's place: the wire is still busy, the packet waits for
    # the wake), one from inside it (it follows: the wire is free).
    for follow_up, wakes in ((None, 1), (2, 0)):
        schedule = [(0, ("send", BIG, None, follow_up))]
        if follow_up is None:
            schedule.append((2, ("send", BIG, None, None)))
        setup = ([],)
        eager = _play(EagerInterface, setup, schedule, _run)
        lazy = _play(Interface, setup, schedule, _run)
        assert lazy.outcome() == eager.outcome()
        deliveries = [e[1] for e in lazy.log if e[0] == "deliver"]
        assert deliveries == [SLOT + DELAY, 2 * SLOT + DELAY]
        assert eager.sim.events_executed - lazy.sim.events_executed == 2 - wakes


def test_send_between_runs_on_the_instant_the_wire_frees():
    # A run that ends exactly when the wire frees up has, in the eager
    # world, executed the completion event, even when the last event
    # the lazy world executed (the probe, scheduled up front) carries a
    # smaller number than the one the transmission reserved.
    seen = []
    for interface_cls in (EagerInterface, Interface):
        world = World(interface_cls, [])
        world.sim.schedule_at(SLOT, world.apply, ("send", BIG, None, None))
        world.sim.schedule_at(2 * SLOT, world.apply, ("probe", BIG, None, None))
        world.sim.run_until(2 * SLOT)
        assert not world.iface.busy
        world.send(BIG, None)  # goes straight onto the wire
        seen.append(
            (world.iface.packets_sent, world.iface.busy, world.iface.backlog_packets)
        )
        world.send(BIG, None)  # waits
        world.sim.run_until(HORIZON)
        seen.append(world.outcome())
    assert seen[:2] == seen[2:]
    assert seen[0] == (2, True, 0)


def test_assigning_on_serialize_changes_nothing():
    # The interface has no capture stage, but perfbench's ledger still
    # assigns one: it must stay a write that nobody reads, even for a
    # hook that would have claimed every packet.
    seen = []
    for capture in (None, lambda packet, arrival_time: True):
        world = World(Interface, [0.0, -1.0, SLOT / 4])
        if capture is not None:
            world.iface.on_serialize = capture
        for __ in range(9):
            world.send(BIG, None)
        world.sim.run_until(HORIZON)
        seen.append((world.outcome(), world.sim.events_executed))
    assert seen[0] == seen[1]
    # Every third packet is dropped by the fault model, none captured.
    assert sum(entry[0] == "deliver" for entry in world.log) == 6


def _bare_interface():
    sim = Simulator()
    iface = Interface(sim, Node(sim, "tx"), Link(RATE, DELAY))
    iface.attach_peer(Node(sim, "rx", handler=lambda packet, node: None))
    return sim, iface


def test_spaced_packets_cost_one_event_each():
    sim, iface = _bare_interface()
    count = 50
    for i in range(count):
        sim.run_until(2 * i * SLOT)  # wider apart than the SLOT on the wire
        assert not iface.busy
        iface.send(Packet(BIG))
    sim.run()
    assert iface.packets_sent == count
    assert iface.max_backlog_packets == 0  # none ever waited
    assert sim.events_executed == count


def test_back_to_back_train_costs_two_events_each_but_the_last():
    sim, iface = _bare_interface()
    count = 50
    for __ in range(count):
        iface.send(Packet(BIG))
    sim.run()
    assert iface.packets_sent == count
    assert iface.max_backlog_packets == count - 1
    assert sim.events_executed == 2 * count - 1
    assert sim.now == count * SLOT + DELAY
