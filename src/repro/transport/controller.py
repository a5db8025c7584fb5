"""Congestion-window controllers for the per-hop transport.

A :class:`WindowController` owns one hop's congestion window.  The
surrounding :class:`~repro.transport.hop.HopSender` owns the cells in
flight: it transmits while it has fewer of them than
:attr:`WindowController.cwnd_cells` and reports each feedback arrival,
saying whether the hop drained with it; everything else — round
bookkeeping, phase transitions, window arithmetic — happens here.

The controller lifecycle has two phases:

* **STARTUP** — the start-up scheme under evaluation (CircuitStart, a
  traditional slow start, ...).  Subclasses implement the two hooks
  :meth:`WindowController._startup_feedback` (per feedback message) and
  :meth:`WindowController._startup_round_complete` (once per RTT round).
* **AVOIDANCE** — shared Vegas-style congestion avoidance, as assumed
  by the BackTap transport model: once per round, compute
  ``diff = cwnd * currentRtt / baseRtt - cwnd`` and move the window by
  one cell when outside the ``[alpha, beta]`` band.

Round bookkeeping follows the paper: growth happens "in discrete
rounds, carried out once per RTT after having received an appropriate
number of feedback messages."  A round targets one window's worth of
feedback; it also closes early if the hop drains, with no cell left in
flight (an application-limited flow must not stall the controller).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Optional

from .config import TransportConfig
from .rtt import RttEstimator

__all__ = ["Phase", "WindowController"]


class Phase(enum.Enum):
    """Controller lifecycle phase."""

    STARTUP = "startup"
    AVOIDANCE = "avoidance"


# Read per feedback message: a module global, not an enum lookup.
_STARTUP = Phase.STARTUP


class WindowController:
    """Base class: round tracking plus Vegas congestion avoidance.

    Subclasses define the start-up behaviour; see
    :class:`repro.core.circuitstart.CircuitStartController` for the
    paper's algorithm and :mod:`repro.core.baselines` for comparators.
    """

    #: Human-readable controller name (overridden by subclasses).
    name = "abstract"

    def __init__(self, config: TransportConfig) -> None:
        self.config = config
        self.rtt = RttEstimator(aggregate=config.rtt_aggregate)
        #: Current congestion window, in cells.  Only :meth:`_set_cwnd`
        #: (and a subclass constructor) writes it; the hop sender reads
        #: it per cell, so it is a plain attribute.
        self.cwnd_cells = config.initial_cwnd_cells
        self.phase = Phase.STARTUP
        self.round_index = 0
        self.round_target = config.initial_cwnd_cells
        self.round_acked = 0
        self._cwnd_listener: Optional[Callable[[float, int], None]] = None
        self._startup_exit_time: Optional[float] = None
        # Timestamps of recent feedback arrivals, used to count the
        # cells "acknowledged within the current round" (one RTT).
        self._feedback_times: Deque[float] = deque()

    # ------------------------------------------------------------------
    # Window accounting
    # ------------------------------------------------------------------

    @property
    def startup_exit_time(self) -> Optional[float]:
        """When the controller left STARTUP (``None`` while still in it)."""
        return self._startup_exit_time

    def bind_cwnd_listener(self, listener: Callable[[float, int], None]) -> None:
        """Register a callback invoked as ``listener(now, cwnd_cells)``.

        Used by experiments to trace window evolution (Figure 1, upper
        plots).  Only one listener is supported; tracing composes at
        the recorder level instead.
        """
        self._cwnd_listener = listener

    def _set_cwnd(self, cells: int, now: float) -> None:
        clamped = max(self.config.min_cwnd_cells, min(cells, self.config.max_cwnd_cells))
        if clamped != self.cwnd_cells:
            self.cwnd_cells = clamped
            if self._cwnd_listener is not None:
                self._cwnd_listener(now, clamped)

    # ------------------------------------------------------------------
    # Sender-facing API
    # ------------------------------------------------------------------

    def on_feedback(
        self, rtt: float, now: float, drained: bool, sampled: bool = True
    ) -> None:
        """A feedback ("moving") message for one cell arrived.

        Updates RTT state, runs the phase-specific per-sample hook, and
        closes the round when a full window of feedback has arrived or
        the hop has *drained* — no cell of it is left in flight.

        *sampled=False* applies Karn's rule: the acknowledgment counts
        toward window accounting, but the RTT measurement is ambiguous
        (the cell was retransmitted) and must not feed the estimator or
        the exit detector.
        """
        self.round_acked += 1
        if sampled:
            self.rtt.add_sample(rtt)
        # Keep the arrival times the compensation can still look at: the
        # trailing compensation_window_rtts + 1 base RTTs.
        times = self._feedback_times
        times.append(now)
        base = self.rtt.base_rtt
        if base is not None:
            horizon = now - (self.config.compensation_window_rtts + 1.0) * base
            while times and times[0] < horizon:
                times.popleft()
        if sampled and self.phase is _STARTUP:
            if self._startup_feedback(rtt, now):
                return
        if self.round_acked >= self.round_target or drained:
            self._complete_round(now, full=self.round_acked >= self.round_target)

    def acked_per_rtt(self, now: float) -> int:
        """Average per-RTT feedback count over the recent past.

        A round lasts one RTT, so the feedback messages that arrived in
        one trailing ``base_rtt`` window are the cells the successor
        forwarded in one round — "the length of the packet train that
        could be forwarded by the successor without additional delay";
        in a backpressured steady state, bottleneck rate × RTT.  This
        averages that count over the configured number of trailing
        base-RTT windows.  Window cuts at downstream relays
        momentarily stall and then burst the feedback stream; averaging
        over a few rounds recovers the steady forwarding rate the
        compensation is after.
        """
        base = self.rtt.base_rtt
        if base is None:
            return len(self._feedback_times)
        windows = self.config.compensation_window_rtts
        cutoff = now - windows * base
        count = sum(1 for t in self._feedback_times if t >= cutoff)
        return int(round(count / windows))

    # ------------------------------------------------------------------
    # Rounds and phases
    # ------------------------------------------------------------------

    def _start_round(self, now: float) -> None:
        self.round_index += 1
        self.round_target = max(1, self.cwnd_cells)
        self.round_acked = 0
        self.rtt.finish_round()

    def _complete_round(self, now: float, full: bool) -> None:
        """Close a round.

        *full* says whether a whole window's worth of feedback arrived
        ("an appropriate number of feedback messages") — rounds that
        ended early because the hop drained carry no evidence that the
        window is the constraint, so growth decisions are gated on it.
        """
        if self.phase is Phase.STARTUP:
            self._startup_round_complete(now, full)
        else:
            self._avoidance_round(now, full)
        self._start_round(now)

    def _enter_avoidance(self, now: float) -> None:
        if self.phase is Phase.AVOIDANCE:
            return
        self.phase = Phase.AVOIDANCE
        self._startup_exit_time = now

    def _avoidance_round(self, now: float, full: bool) -> None:
        """Vegas-style once-per-round adjustment (BackTap's behaviour).

        Increases require a *full* round — a window that was never
        filled carries no evidence it is too small.  Decreases act on
        any round: a growing queue is a valid signal regardless.
        """
        if self.rtt.base_rtt is None or self.rtt.round_samples == 0:
            return
        diff = self.rtt.vegas_diff(self.cwnd_cells)
        if diff > self.config.vegas_beta:
            self._set_cwnd(self.cwnd_cells - 1, now)
        elif diff < self.config.vegas_alpha and full:
            self._set_cwnd(self.cwnd_cells + 1, now)

    # ------------------------------------------------------------------
    # Start-up hooks (subclass responsibility)
    # ------------------------------------------------------------------

    def _startup_feedback(self, rtt: float, now: float) -> bool:
        """Per-feedback start-up behaviour.

        Return ``True`` when the controller exited start-up *and* reset
        its round (the caller then skips its own round bookkeeping).
        """
        raise NotImplementedError

    def _startup_round_complete(self, now: float, full: bool) -> None:
        """Called when a round of feedback completed during STARTUP."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s cwnd=%d cells phase=%s>" % (
            type(self).__name__,
            self.cwnd_cells,
            self.phase.value,
        )
