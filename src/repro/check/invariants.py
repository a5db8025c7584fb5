"""The invariant catalog asserted in every reached model state.

Six invariants, mirroring the contracts the real stack relies on:

1. **conservation** — a hop's ``outstanding`` count, the one its
   window is compared with, equals the number of its in-flight cells.
   The engine keeps a single count, the sender's send-time table, so
   there the two cannot drift; the model keeps both so that a leak on
   teardown stays checkable (its ``leak-outstanding-on-close`` bug
   injects one), and the replay compares the model's ``outstanding``
   with the sender's in-flight count.
2. **window-bounds** — ``0 <= outstanding <= cwnd_cells`` always.
3. **in-order-delivery** — no receiver ever *accepts* a ``hop_seq``
   twice or out of order, even across go-back-N retransmissions
   (asserted at the transition by the model's receiver; asserted here
   as the state-level monotonicity ``next_inbound <= upstream
   next_seq``).
4. **deadlock-freedom** — a state with no enabled action is only legal
   when the circuit is down or every payload cell reached the sink
   (checked by the enumerator on terminal states via
   :func:`terminal_violations`).
5. **quiescence-after-close** — once the circuit is down, no hop holds
   buffered or in-flight cells and no window accounting remains;
   stragglers still on the wire may *arrive* but must change nothing.
6. **cwnd-floor** — the congestion window never drops below its
   initial (configured) value; the engine's controllers only ever grow
   it from ``initial_cwnd_cells``.
"""

from __future__ import annotations

from typing import List, Tuple

from .model import ModelState

__all__ = ["INVARIANTS", "state_violations", "terminal_violations"]

#: name -> one-line description, in catalog order.
INVARIANTS = (
    ("conservation", "outstanding == sum of in-flight cells"),
    ("window-bounds", "0 <= outstanding <= cwnd_cells"),
    ("in-order-delivery", "no hop_seq accepted twice or out of order"),
    ("deadlock-freedom", "no quiescent state short of full delivery"),
    ("quiescence-after-close", "nothing buffered, in flight or scheduled after teardown"),
    ("cwnd-floor", "cwnd never below the initial window"),
)

#: A violation: ``(invariant name, human-readable detail)``.
Violation = Tuple[str, str]


def state_violations(state: ModelState) -> List[Violation]:
    """All invariant violations of *state* (empty list = clean)."""
    out: List[Violation] = []
    config = state.config
    for i, hop in enumerate(state.hops):
        if hop.outstanding != len(hop.inflight):
            out.append((
                "conservation",
                "hop %d: outstanding=%d but %d cells in flight"
                % (i, hop.outstanding, len(hop.inflight)),
            ))
        if not 0 <= hop.outstanding <= hop.cwnd:
            out.append((
                "window-bounds",
                "hop %d: outstanding=%d outside [0, cwnd=%d]"
                % (i, hop.outstanding, hop.cwnd),
            ))
        if hop.cwnd < config.cwnd:
            out.append((
                "cwnd-floor",
                "hop %d: cwnd=%d below initial %d"
                % (i, hop.cwnd, config.cwnd),
            ))
    for i, recv in enumerate(state.receivers):
        # The receiver can never have accepted more cells than its
        # upstream sender ever numbered — the state-level face of
        # in-order/no-duplicate delivery (the transition-level face is
        # asserted inside the model's accept path).
        if recv.next_inbound > state.hops[i].next_seq:
            out.append((
                "in-order-delivery",
                "hop %d receiver accepted %d cells but upstream sent %d"
                % (i, recv.next_inbound, state.hops[i].next_seq),
            ))
    if state.down:
        for i, hop in enumerate(state.hops):
            if hop.buffer or hop.inflight or hop.outstanding:
                out.append((
                    "quiescence-after-close",
                    "hop %d after teardown: buffered=%d inflight=%d outstanding=%d"
                    % (i, len(hop.buffer), len(hop.inflight), hop.outstanding),
                ))
    return out


def terminal_violations(state: ModelState) -> List[Violation]:
    """Violations that only make sense in quiescent (terminal) states."""
    if not state.down and state.delivered < state.config.cells:
        return [(
            "deadlock-freedom",
            "quiescent with %d/%d cells delivered and the circuit up"
            % (state.delivered, state.config.cells),
        )]
    return []
