"""Explicit-state model of the hop-by-hop transport.

The model is a faithful, time-free abstraction of one circuit running
over the real stack:

* per hop, a sender mirroring :class:`~repro.transport.hop.HopSender`
  — window-gated pump, the count of cells in flight, per-hop sequence
  numbers, go-back-N retransmission state, the teardown path — plus
  the count-driven part of
  :class:`~repro.transport.controller.WindowController` (discrete-round
  bookkeeping);
* per receiving node, the in-order go-back-N receiver of
  :class:`~repro.tor.hosts.TorHost` (duplicates re-acknowledged,
  out-of-order arrivals dropped);
* per hop, two FIFO channels — data cells forward, feedback cells
  backward — abstracting links and queues: a message sits in its
  channel until the *scheduler* (the enumerator, or a replayed
  schedule) delivers or loses it.

What the abstraction drops is **time**: RTT values, and therefore the
Vegas exit detector, are abstracted away.  The two supported window
modes are exactly the engine configurations whose window dynamics are
count-driven and therefore schedule-deterministic:

* ``"fixed"``  — a constant window
  (:class:`~repro.core.baselines.FixedWindowController`);
* ``"double"`` — CircuitStart's discrete-round doubling with the exit
  detector disabled (``gamma`` effectively infinite), i.e. the
  worst-case overshoot ramp.

Nondeterminism is the *action* set: deliver the head of any channel,
lose it (reliable mode), fire a retransmission timeout, or tear the
circuit down.  :mod:`repro.check.search` enumerates every
interleaving of these actions; :mod:`repro.check.replay` re-executes
any single interleaving against the real engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..serialize import Serializable

__all__ = [
    "Action",
    "CheckConfig",
    "InvariantViolationError",
    "ModelError",
    "ModelState",
    "ScheduleNotEnabledError",
]

#: One scheduler choice: ``(kind, hop)``.
Action = Tuple[str, int]

#: Action kinds, in the deterministic enumeration order.
ACTION_KINDS = ("cell", "lose_cell", "feedback", "lose_feedback", "rto", "close")


class ModelError(RuntimeError):
    """Base error for model-level failures."""


class ScheduleNotEnabledError(ModelError):
    """A schedule step was applied in a state where it is not enabled."""


class InvariantViolationError(ModelError):
    """A transition-level invariant broke (e.g. duplicate delivery)."""

    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__("%s: %s" % (invariant, detail))
        self.invariant = invariant
        self.detail = detail


@dataclass(frozen=True)
class CheckConfig(Serializable):
    """Parameters of one checking instance.

    Attributes
    ----------
    hops:
        Transport hops on the circuit (= number of hop senders).  A
        2-hop circuit is source → relay → sink.
    cells:
        Payload cells pushed at the source at time zero.
    reliable:
        Enable per-hop go-back-N: adds loss and RTO actions to the
        scheduler's alphabet, exactly like ``TransportConfig.reliable``.
    cwnd:
        The (initial) congestion window in cells.
    window_mode:
        ``"fixed"`` — constant window; ``"double"`` — CircuitStart's
        per-full-round doubling with the RTT exit detector disabled.
    max_cwnd:
        Doubling cap, mirroring ``TransportConfig.max_cwnd_cells``.
    max_retransmission_rounds:
        Consecutive timeouts without progress before a hop gives up
        and breaks the circuit (``TransportConfig`` mirror; the default
        is small to keep reliable state spaces tight).
    allow_close:
        Add a one-shot ``close`` action tearing the circuit down at an
        arbitrary point — the churn-departure schedule family.
    loss_budget:
        Optional cap on the number of loss events per execution; the
        space stays finite without one (the retransmission budget
        bounds loss cycles), but a budget shrinks deep reliable runs.
    """

    hops: int = 2
    cells: int = 3
    reliable: bool = False
    cwnd: int = 2
    window_mode: str = "fixed"
    max_cwnd: int = 64
    max_retransmission_rounds: int = 2
    allow_close: bool = False
    loss_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError("need at least one hop, got %d" % self.hops)
        if self.cells < 1:
            raise ValueError("need at least one cell, got %d" % self.cells)
        if self.cwnd < 1:
            raise ValueError("cwnd must be at least one cell")
        if self.max_cwnd < self.cwnd:
            raise ValueError("max_cwnd smaller than cwnd")
        if self.window_mode not in ("fixed", "double"):
            raise ValueError("unknown window mode %r" % self.window_mode)
        if self.max_retransmission_rounds < 1:
            raise ValueError("max_retransmission_rounds must be >= 1")
        if self.loss_budget is not None and self.loss_budget < 0:
            raise ValueError("loss budget must be non-negative")


class _HopModel:
    """One hop sender plus the count-driven slice of its controller."""

    __slots__ = (
        "buffer", "inflight", "next_seq", "streak",
        "outstanding", "cwnd", "round_target", "round_acked",
        "feedback_received", "dup_feedback", "retransmissions", "timeouts",
        "_ckey",
    )

    def __init__(self, cwnd: int) -> None:
        #: Cells waiting for window space: ``(cell_id, token)`` pairs.
        self.buffer: List[Tuple[int, Optional[int]]] = []
        #: Transmitted but unacknowledged: seq -> ``(cell_id, token)``.
        #: Mirrors ``HopSender._send_times`` keys (== ``_unacked`` in
        #: reliable mode).
        self.inflight: Dict[int, Tuple[int, Optional[int]]] = {}
        self.next_seq = 0
        self.streak = 0  # _timeout_streak
        # Controller slice (WindowController).
        self.outstanding = 0
        self.cwnd = cwnd
        self.round_target = cwnd
        self.round_acked = 0
        # Counters (not part of the hashed state).
        self.feedback_received = 0
        self.dup_feedback = 0
        self.retransmissions = 0
        self.timeouts = 0
        #: Cached canonical fragment; None = recompute (see ModelState).
        self._ckey: Optional[Tuple[Any, ...]] = None

    def clone(self) -> "_HopModel":
        copy = _HopModel.__new__(_HopModel)
        copy.buffer = list(self.buffer)
        copy.inflight = dict(self.inflight)
        copy.next_seq = self.next_seq
        copy.streak = self.streak
        copy.outstanding = self.outstanding
        copy.cwnd = self.cwnd
        copy.round_target = self.round_target
        copy.round_acked = self.round_acked
        copy.feedback_received = self.feedback_received
        copy.dup_feedback = self.dup_feedback
        copy.retransmissions = self.retransmissions
        copy.timeouts = self.timeouts
        copy._ckey = None
        return copy


class _ReceiverModel:
    """The in-order (go-back-N) receiver state at one node."""

    __slots__ = ("next_inbound", "dup_cells", "gap_drops")

    def __init__(self) -> None:
        self.next_inbound = 0
        self.dup_cells = 0
        self.gap_drops = 0

    def clone(self) -> "_ReceiverModel":
        copy = _ReceiverModel.__new__(_ReceiverModel)
        copy.next_inbound = self.next_inbound
        copy.dup_cells = self.dup_cells
        copy.gap_drops = self.gap_drops
        return copy


class ModelState:
    """The full protocol state of one modelled circuit.

    Mutable; the enumerator clones before applying actions.  The
    hashable projection (:meth:`canonical`) excludes pure counters so
    executions that differ only in diagnostic tallies collapse.
    """

    __slots__ = (
        "config", "hops", "receivers", "fwd", "rev",
        "closed", "broken", "late_cells", "losses", "injected_bug",
        "fwd_keys", "rev_keys",
    )

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.hops: List[_HopModel] = [
            _HopModel(config.cwnd) for _ in range(config.hops)
        ]
        #: receivers[i] receives hop i's cells (it lives at node i+1).
        self.receivers: List[_ReceiverModel] = [
            _ReceiverModel() for _ in range(config.hops)
        ]
        #: fwd[i]: data cells in flight on hop i, ``(cell_id, seq)``.
        self.fwd: List[List[Tuple[int, int]]] = [[] for _ in range(config.hops)]
        #: rev[i]: feedback in flight toward hop i's sender (acked seqs).
        self.rev: List[List[int]] = [[] for _ in range(config.hops)]
        #: Cached canonical fragments per channel; None = recompute.
        self.fwd_keys: List[Optional[Tuple[Any, ...]]] = [None] * config.hops
        self.rev_keys: List[Optional[Tuple[Any, ...]]] = [None] * config.hops
        self.closed = False
        self.broken = False
        self.late_cells = 0
        self.losses = 0
        #: Test-only fault injection (see tests): "" = faithful model.
        self.injected_bug = ""

    # ------------------------------------------------------------------
    # Construction / copying / hashing
    # ------------------------------------------------------------------

    @classmethod
    def initial(cls, config: CheckConfig) -> "ModelState":
        """The start state: every payload cell enqueued at the source."""
        state = cls(config)
        source = state.hops[0]
        for cell_id in range(config.cells):
            source.buffer.append((cell_id, None))
        state._pump(0)
        return state

    def clone(self) -> "ModelState":
        copy = ModelState.__new__(ModelState)
        copy.config = self.config
        copy.hops = [hop.clone() for hop in self.hops]
        copy.receivers = [recv.clone() for recv in self.receivers]
        copy.fwd = [list(channel) for channel in self.fwd]
        copy.rev = [list(channel) for channel in self.rev]
        copy.fwd_keys = [None] * self.config.hops
        copy.rev_keys = [None] * self.config.hops
        copy.closed = self.closed
        copy.broken = self.broken
        copy.late_cells = self.late_cells
        copy.losses = self.losses
        copy.injected_bug = self.injected_bug
        return copy

    def _touched(
        self, action: Action
    ) -> Tuple[Optional[Tuple[int, ...]], Tuple[int, ...], Tuple[int, ...],
               Tuple[int, ...]]:
        """The write set of *action* in this state, as index tuples
        ``(hops, fwd, rev, receivers)`` (``hops is None`` = every hop).

        This is the single source of truth for what a transition may
        mutate: :meth:`clone_for` copies exactly these structures (and
        shares the rest) and :meth:`apply` invalidates exactly their
        canonical-fragment caches.  Every mutation in the transition
        helpers below must stay inside it.
        """
        kind, i = action
        if kind == "cell":
            # Pops fwd[i], moves receiver i, acks rev[i] (sink or dup);
            # a relay buffers into hop i+1 whose pump pushes fwd[i+1]
            # and re-acks rev[i] at tx.
            if i + 1 < self.config.hops:
                return (i + 1,), (i, i + 1), (i,), (i,)
            return (), (i,), (i,), (i,)
        if kind == "feedback":
            # Pops rev[i], updates hop i, whose pump pushes fwd[i] and
            # (relay) re-acks rev[i-1] at tx.
            return (i,), (i,), ((i, i - 1) if i > 0 else (i,)), ()
        if kind == "lose_cell":
            return (), (i,), (), ()
        if kind == "lose_feedback":
            return (), (), (i,), ()
        if kind == "rto":
            # A retransmit touches hop i, fwd[i] and (relay) rev[i-1];
            # exhausting the budget instead tears every hop down
            # (mirror _fire_rto's break condition exactly).
            if (self.hops[i].streak + 1
                    > self.config.max_retransmission_rounds):
                return None, (), (), ()
            return (i,), (i,), ((i - 1,) if i > 0 else ()), ()
        if kind == "close":
            return None, (), (), ()
        raise ModelError("unknown action kind %r" % (kind,))

    def clone_for(self, action: Action) -> "ModelState":
        """A copy sufficient to apply *action*: structures the action
        can mutate (its :meth:`_touched` set) are copied, everything
        else is **shared** with this state.

        The enumerator's hot path — a full :meth:`clone` copies every
        hop, receiver and channel per transition, but each action's
        write set is small.  Sharing is safe because :meth:`apply` only
        mutates inside the write set, i.e. through the copied
        references; ``tests/test_check_explore.py`` pins equivalence
        against full clones.
        """
        hops_t, fwd_t, rev_t, recv_t = self._touched(action)
        copy = ModelState.__new__(ModelState)
        copy.config = self.config
        if hops_t is None:
            copy.hops = [hop.clone() for hop in self.hops]
        else:
            copy.hops = list(self.hops)
            for h in hops_t:
                copy.hops[h] = self.hops[h].clone()
        copy.receivers = list(self.receivers)
        for r in recv_t:
            copy.receivers[r] = self.receivers[r].clone()
        copy.fwd = list(self.fwd)
        copy.fwd_keys = list(self.fwd_keys)
        for c in fwd_t:
            copy.fwd[c] = list(self.fwd[c])
            copy.fwd_keys[c] = None
        copy.rev = list(self.rev)
        copy.rev_keys = list(self.rev_keys)
        for c in rev_t:
            copy.rev[c] = list(self.rev[c])
            copy.rev_keys[c] = None
        copy.closed = self.closed
        copy.broken = self.broken
        copy.late_cells = self.late_cells
        copy.losses = self.losses
        copy.injected_bug = self.injected_bug
        return copy

    def canonical(self) -> Tuple[Any, ...]:
        """Hashable projection of the behaviour-relevant state.

        Diagnostic counters are excluded: two states that differ only
        in tallies behave identically forever, so hashing them apart
        would only inflate the explored space.  Round bookkeeping is
        included only in ``"double"`` mode (in ``"fixed"`` mode it
        cannot influence the window).
        """
        rounds = self.config.window_mode == "double"
        # Flat key: the layout is fixed for a given config (hop count,
        # mode), so a single flat tuple is injective and far cheaper to
        # build and hash than a nested one.  Per-hop and per-channel
        # fragments are cached on the (shared) structures themselves:
        # clone_for shares untouched hops/channels between states, so
        # only mutated fragments are rebuilt (apply invalidates them
        # via the _touched write set).
        parts: List[Any] = [
            self.closed,
            self.broken,
            (self.losses if self.config.loss_budget is not None else 0),
        ]
        append = parts.append
        for hop in self.hops:
            key = hop._ckey
            if key is None:
                # NB: inflight dicts stay sorted by construction —
                # _pump inserts strictly increasing seqs and deletion
                # preserves dict order — so plain iteration is already
                # canonical.
                key = (
                    tuple(hop.buffer),
                    tuple(hop.inflight.items()),
                    hop.next_seq,
                    hop.streak,
                    hop.outstanding,
                    hop.cwnd,
                    (hop.round_target, hop.round_acked) if rounds else None,
                )
                hop._ckey = key
            append(key)
        for recv in self.receivers:
            append(recv.next_inbound)
        fwd_keys = self.fwd_keys
        for idx, channel in enumerate(self.fwd):
            key = fwd_keys[idx]
            if key is None:
                key = tuple(channel)
                fwd_keys[idx] = key
            append(key)
        rev_keys = self.rev_keys
        for idx, channel in enumerate(self.rev):
            key = rev_keys[idx]
            if key is None:
                key = tuple(channel)
                rev_keys[idx] = key
            append(key)
        return tuple(parts)

    def canonical_symmetric(self) -> Tuple[Any, ...]:
        """:meth:`canonical` quotiented by permutation of the interior
        hop positions (a middle relay's whole column: hop sender,
        receiver, forward and reverse channel).

        Interior hops are structurally identical — same window config,
        same relay pump — so states differing only in *which* middle
        position holds a given column fragment are merged by sorting
        the interior columns into a canonical order.  This is a
        heuristic quotient, not an exact automorphism (hop ``i`` feeds
        hop ``i+1``, so position does matter dynamically): it can merge
        states a position-faithful exploration would keep apart, which
        shrinks the represented space but never skips the invariant
        check on any state the exploration *does* reach.  Endpoint
        columns (the source at 0, the exit at ``hops-1``) keep their
        positions.  Below three hops there is no interior pair and the
        key degenerates to :meth:`canonical` exactly.
        """
        base = self.canonical()
        hops = self.config.hops
        if hops < 3:
            return base
        hop_keys = base[3:3 + hops]
        recvs = base[3 + hops:3 + 2 * hops]
        fwd = base[3 + 2 * hops:3 + 3 * hops]
        rev = base[3 + 3 * hops:]
        columns = [
            (hop_keys[i], recvs[i], fwd[i], rev[i]) for i in range(hops)
        ]
        # key=repr: column fragments mix ints, None and tuples, which
        # do not compare directly.
        interior = sorted(columns[1:hops - 1], key=repr)
        return base[:3] + tuple(
            [columns[0]] + interior + [columns[hops - 1]]
        )

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    @property
    def delivered(self) -> int:
        """Cells delivered to the sink application (in-order count)."""
        return self.receivers[-1].next_inbound

    @property
    def down(self) -> bool:
        """Whether the circuit has been torn down (close or break)."""
        return self.closed or self.broken

    def enabled_actions(self) -> List[Action]:
        """All scheduler choices in this state, in deterministic order."""
        config = self.config
        actions: List[Action] = []
        if self.down:
            # Teardown drops protocol state but not packets already on
            # the wire: stragglers still arrive (and must be ignored).
            for i in range(config.hops):
                if self.fwd[i]:
                    actions.append(("cell", i))
                if self.rev[i]:
                    actions.append(("feedback", i))
            return actions
        may_lose = config.reliable and (
            config.loss_budget is None or self.losses < config.loss_budget
        )
        for i in range(config.hops):
            if self.fwd[i]:
                actions.append(("cell", i))
                if may_lose:
                    actions.append(("lose_cell", i))
            if self.rev[i]:
                actions.append(("feedback", i))
                if may_lose:
                    actions.append(("lose_feedback", i))
            if config.reliable and self.hops[i].inflight:
                # _arm_timer: the timer is armed exactly while cells
                # are unacknowledged.
                actions.append(("rto", i))
        if config.allow_close:
            actions.append(("close", 0))
        return actions

    # ------------------------------------------------------------------
    # Transition function
    # ------------------------------------------------------------------

    def apply(self, action: Action) -> None:
        """Execute *action* in place.

        Raises :class:`ScheduleNotEnabledError` for steps the current
        state does not enable and :class:`InvariantViolationError` when
        the transition itself breaks a protocol invariant (duplicate /
        out-of-order delivery, activity after teardown).
        """
        # Invalidate canonical-fragment caches for the write set (this
        # state may share untouched fragments with clone_for siblings;
        # in-place execution such as Schedule.run_model relies on it).
        hops_t, fwd_t, rev_t, _ = self._touched(action)
        for h in (self.hops if hops_t is None
                  else [self.hops[h] for h in hops_t]):
            h._ckey = None
        for c in fwd_t:
            self.fwd_keys[c] = None
        for c in rev_t:
            self.rev_keys[c] = None
        self._apply_trusted(action)

    def _apply_trusted(self, action: Action) -> None:
        """:meth:`apply` without cache invalidation — callable only on
        a state fresh out of :meth:`clone_for` for the same *action*
        (which left every write-set cache already invalid).  The
        enumerator's hot path."""
        kind, hop = action
        if kind == "cell":
            self._deliver_cell(hop)
        elif kind == "feedback":
            self._deliver_feedback(hop)
        elif kind == "lose_cell":
            self._lose(self.fwd, hop, "data")
        elif kind == "lose_feedback":
            self._lose(self.rev, hop, "feedback")
        elif kind == "rto":
            self._fire_rto(hop)
        elif kind == "close":
            if self.down:
                raise ScheduleNotEnabledError("circuit already down")
            self._close_all()
            self.closed = True
        else:
            raise ModelError("unknown action kind %r" % (kind,))

    # -- deliveries -----------------------------------------------------

    def _deliver_cell(self, i: int) -> None:
        if not self.fwd[i]:
            raise ScheduleNotEnabledError("no data cell in flight on hop %d" % i)
        cell_id, seq = self.fwd[i].pop(0)
        if self.down:
            # TorHost counts stragglers on retired circuits and drops
            # them without touching any state (the invariant-5 check in
            # replay relies on exactly this).
            self.late_cells += 1
            return
        recv = self.receivers[i]
        accept_from = recv.next_inbound
        if self.injected_bug == "accept-duplicates":
            accept_from = max(0, accept_from - 1)
        if seq < accept_from:
            # Retransmitted copy of an accepted cell: re-acknowledge so
            # the upstream sender makes progress, deliver nothing.
            recv.dup_cells += 1
            self.rev[i].append(seq)
            return
        if seq > recv.next_inbound:
            # Out-of-order arrival while awaiting a retransmission.
            recv.gap_drops += 1
            return
        if cell_id != recv.next_inbound and self.injected_bug != "accept-duplicates":
            raise InvariantViolationError(
                "in-order-delivery",
                "hop %d receiver accepted cell %d as delivery #%d"
                % (i, cell_id, recv.next_inbound),
            )
        recv.next_inbound += 1
        if i == self.config.hops - 1:
            # Sink: consumption counts as forwarding — acknowledge now.
            self.rev[i].append(seq)
        else:
            # Relay: the upstream seq travels as the token and is
            # acknowledged when the relay's own window releases the
            # cell (inside _pump).
            self.hops[i + 1].buffer.append((cell_id, seq))
            self._pump(i + 1)

    def _deliver_feedback(self, i: int) -> None:
        if not self.rev[i]:
            raise ScheduleNotEnabledError("no feedback in flight on hop %d" % i)
        seq = self.rev[i].pop(0)
        if self.down:
            self.late_cells += 1
            return
        hop = self.hops[i]
        if self.config.reliable:
            # Cumulative: the receiver is in-order, so seq moving means
            # everything at or below it moved.
            acked = sorted(s for s in hop.inflight if s <= seq)
            if not acked:
                hop.dup_feedback += 1
                return
            hop.streak = 0
            for acked_seq in acked:
                self._complete_one(i, acked_seq)
        else:
            if seq not in hop.inflight:
                hop.dup_feedback += 1
                return
            self._complete_one(i, seq)
        self._pump(i)

    def _complete_one(self, i: int, seq: int) -> None:
        hop = self.hops[i]
        del hop.inflight[seq]
        hop.feedback_received += 1
        self._controller_ack(hop)

    def _lose(self, channels: List[List[Any]], i: int, what: str) -> None:
        if not self.config.reliable:
            raise ScheduleNotEnabledError(
                "loss events need the reliable transport")
        if (self.config.loss_budget is not None
                and self.losses >= self.config.loss_budget):
            raise ScheduleNotEnabledError("loss budget exhausted")
        if not channels[i]:
            raise ScheduleNotEnabledError(
                "no %s in flight on hop %d to lose" % (what, i)
            )
        channels[i].pop(0)
        self.losses += 1

    # -- retransmission -------------------------------------------------

    def _fire_rto(self, i: int) -> None:
        if not self.config.reliable:
            raise ScheduleNotEnabledError(
                "the lossless transport arms no retransmission timer")
        hop = self.hops[i]
        if not hop.inflight:
            raise ScheduleNotEnabledError("hop %d has no unacked cells" % i)
        hop.timeouts += 1
        hop.streak += 1
        if hop.streak > self.config.max_retransmission_rounds:
            # HopBrokenError routed to the circuit-level failure hook:
            # the hop closes itself and the circuit tears down.
            self._close_all()
            self.broken = True
            return
        # Go-back-N: resend every unacked cell, oldest first.  A relay
        # re-acknowledges upstream at transmit time, retransmits
        # included (the token rides the clone).
        for seq in sorted(hop.inflight):
            cell_id, token = hop.inflight[seq]
            self.fwd[i].append((cell_id, seq))
            hop.retransmissions += 1
            if token is not None and i > 0:
                self.rev[i - 1].append(token)

    # -- teardown -------------------------------------------------------

    def _close_all(self) -> None:
        """Tear down every hop (HopSender.close at each host).

        In-flight packets stay on the wire — they will arrive at
        retired hosts as stragglers.
        """
        for hop in self.hops:
            released = len(hop.inflight)
            hop.buffer.clear()
            hop.inflight.clear()
            if self.injected_bug != "leak-outstanding-on-close":
                hop.outstanding = max(0, hop.outstanding - released)

    # -- window machinery ----------------------------------------------

    def _pump(self, i: int) -> None:
        """Transmit as many buffered cells as hop *i*'s window allows."""
        hop = self.hops[i]
        while hop.outstanding < hop.cwnd and hop.buffer:
            cell_id, token = hop.buffer.pop(0)
            seq = hop.next_seq
            hop.next_seq += 1
            hop.inflight[seq] = (cell_id, token)
            hop.outstanding += 1  # controller.on_cell_sent
            self.fwd[i].append((cell_id, seq))
            if token is not None and i > 0:
                # The relay acknowledges the upstream copy the moment
                # it forwards (tx start) — TorHost's feedback hook.
                self.rev[i - 1].append(token)

    def _controller_ack(self, hop: _HopModel) -> None:
        """WindowController.on_feedback, minus the RTT machinery."""
        if hop.outstanding > 0:
            hop.outstanding -= 1
        hop.round_acked += 1
        if hop.round_acked >= hop.round_target or hop.outstanding == 0:
            full = hop.round_acked >= hop.round_target
            if full and self.config.window_mode == "double":
                hop.cwnd = min(hop.cwnd * 2, self.config.max_cwnd)
            # _start_round
            hop.round_target = max(1, hop.cwnd)
            hop.round_acked = 0

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ModelState hops=%d delivered=%d/%d%s%s>" % (
            self.config.hops,
            self.delivered,
            self.config.cells,
            " closed" if self.closed else "",
            " broken" if self.broken else "",
        )
